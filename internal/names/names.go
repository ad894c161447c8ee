// Package names cuts generated names — a prefix and a decimal
// sequence number, as in "node-17", "wq-worker-3" or "stream-task 9" —
// from shared append-only byte chunks. A controller that names one
// object per event (a pod per worker, a node per provisioned machine)
// then pays one allocation per chunk of names instead of one per name.
package names

import (
	"strconv"
	"strings"
)

// chunkBytes is the size of one chunk: a few hundred names.
const chunkBytes = 4096

// Chunks cuts names. The zero value is ready to use. A Chunks must not
// be copied after first use, and is not safe for concurrent use.
type Chunks struct{ b strings.Builder }

// Numbered returns prefix followed by n in decimal. The string is a
// slice of the current chunk, which is written back to back and never
// rewritten (a strings.Builder never touches bytes it has handed out);
// a full chunk is left to the names cut from it and is freed with the
// last of them.
func (c *Chunks) Numbered(prefix string, n int) string {
	var num [20]byte
	digits := strconv.AppendInt(num[:0], int64(n), 10)
	c.Grow(len(prefix) + len(digits))
	start := c.b.Len()
	c.b.WriteString(prefix)
	c.b.Write(digits)
	return c.b.String()[start:]
}

// Grow makes room for n more bytes of names in the current chunk,
// starting a new chunk of at least n bytes if it has less: a caller
// that knows how many names it will cut gets them all from one chunk.
func (c *Chunks) Grow(n int) {
	if c.b.Cap()-c.b.Len() < n {
		c.b = strings.Builder{}
		c.b.Grow(max(chunkBytes, n))
	}
}
