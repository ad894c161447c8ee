// Package intern maps strings to dense int32 ids. Identity-heavy hot
// paths (category names, worker ids, shared-file names, pod labels)
// pay a string hash on every map operation and keep a pointer-bearing
// map bucket per entry; interning pays the hash once at the API
// boundary and turns every subsequent lookup into a slice index. Ids
// are handed out contiguously from zero, so a Table's ids directly
// index parallel arrays.
package intern

// None is the conventional "no id" sentinel. The Table itself never
// returns it; callers use it for absent/optional ids.
const None int32 = -1

// Table interns strings into dense ids: the i-th distinct string
// interned gets id i. The zero Table is ready to use. A Table is not
// safe for concurrent use.
type Table struct {
	ids  map[string]int32
	strs []string
}

// NewTable returns an empty table.
func NewTable() *Table { return &Table{} }

// Intern returns the id for s, assigning the next dense id on first
// sight.
func (t *Table) Intern(s string) int32 {
	if id, ok := t.ids[s]; ok {
		return id
	}
	if t.ids == nil {
		t.ids = make(map[string]int32)
	}
	id := int32(len(t.strs))
	t.ids[s] = id
	t.strs = append(t.strs, s)
	return id
}

// Str returns the string for a previously assigned id. It panics on
// an id the table never handed out — looking up a foreign id is a
// bookkeeping bug, not a recoverable condition.
func (t *Table) Str(id int32) string { return t.strs[id] }
