// Package makeflow parses workflow descriptions written in the
// Makeflow language — the Make-like syntax of the workflow manager
// used by the paper — into a dag.Graph.
//
// The supported subset covers what HTC workloads use in practice:
//
//	# comment
//	SHELL=/bin/sh                # variable assignment
//	CATEGORY=align               # switch current task category
//	CORES=1                      # per-category resource declarations
//	MEMORY=4096
//	DISK=1800
//
//	out.1: in.1 blastall         # rule: targets ':' sources
//		./blastall -i in.1 -o out.1   # tab-indented command
//
// Variables are substituted with $(NAME) or ${NAME}. A trailing
// backslash continues a line. Rules inherit the resource declarations
// of the category that is current when the rule appears.
package makeflow

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"hta/internal/dag"
	"hta/internal/resources"
)

// Result is a parsed workflow.
type Result struct {
	// Graph is the finalized workflow DAG.
	Graph *dag.Graph
	// CategoryResources maps category names to their declared
	// per-task resource requirements (zero vector if undeclared).
	CategoryResources map[string]resources.Vector
	// Variables holds the final values of all assigned variables.
	Variables map[string]string
	// Exports lists variables marked for export into task
	// environments, in declaration order.
	Exports []string
}

// ParseError is a syntax error with its source line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("makeflow: line %d: %s", e.Line, e.Msg)
}

func errf(line int, format string, args ...any) error {
	return &ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// DefaultCategory is the category assigned to rules that appear
// before any CATEGORY declaration, matching Makeflow's behaviour.
const DefaultCategory = "default"

// reserved variable names that carry parser semantics rather than
// plain substitution values.
var reserved = map[string]bool{
	"CATEGORY": true, "CORES": true, "MEMORY": true, "DISK": true,
}

type parser struct {
	vars     map[string]string
	category string
	catRes   map[string]resources.Vector
	graph    *dag.Graph
	ruleN    int
	exports  []string

	// Scratch reused from rule to rule: dag.Graph.Add copies the file
	// lists, and id is copied into each rule's ID string.
	cmds, outs, ins []string
	id              []byte
}

// Parse reads a Makeflow description and returns the workflow.
func Parse(r io.Reader) (*Result, error) {
	p := &parser{
		vars:     make(map[string]string),
		category: DefaultCategory,
		catRes:   make(map[string]resources.Vector),
		graph:    dag.NewGraph(),
	}
	lines, rules, err := readLogicalLines(r)
	if err != nil {
		return nil, err
	}
	p.graph.Grow(rules)
	for i := 0; i < len(lines); i++ {
		ln := lines[i]
		text := ln.text
		if strings.TrimSpace(text) == "" {
			continue
		}
		if isCommand(text) {
			return nil, errf(ln.num, "command without a preceding rule")
		}
		expanded, err := p.expand(text, ln.num)
		if err != nil {
			return nil, err
		}
		if rest, ok := strings.CutPrefix(strings.TrimSpace(expanded), "export "); ok {
			if err := p.export(rest, ln.num); err != nil {
				return nil, err
			}
			continue
		}
		if name, val, ok := splitAssignment(expanded); ok {
			if err := p.assign(name, val, ln.num); err != nil {
				return nil, err
			}
			continue
		}
		if strings.Contains(expanded, ":") {
			// Gather the tab-indented command block.
			cmds := p.cmds[:0]
			j := i + 1
			for ; j < len(lines); j++ {
				ct := lines[j].text
				if !isCommand(ct) {
					break
				}
				cexp, err := p.expand(strings.TrimLeft(ct, " \t"), lines[j].num)
				if err != nil {
					return nil, err
				}
				if cexp != "" {
					cmds = append(cmds, cexp)
				}
			}
			p.cmds = cmds
			if err := p.addRule(expanded, cmds, ln.num); err != nil {
				return nil, err
			}
			i = j - 1
			continue
		}
		return nil, errf(ln.num, "expected rule or assignment, got %q", strings.TrimSpace(text))
	}
	if err := p.graph.Finalize(); err != nil {
		return nil, err
	}
	return &Result{
		Graph:             p.graph,
		CategoryResources: p.catRes,
		Variables:         p.vars,
		Exports:           p.exports,
	}, nil
}

// ParseString is Parse on a string.
func ParseString(s string) (*Result, error) { return Parse(strings.NewReader(s)) }

type logicalLine struct {
	text string
	num  int
}

// readLogicalLines strips comments and joins backslash-continued
// lines, cut from one copy of the input, keeping each one's first line
// number for error reporting. rules bounds the rule count from above:
// a rule starts on a line that is neither empty nor a command.
func readLogicalLines(r io.Reader) (lines []logicalLine, rules int, err error) {
	var b strings.Builder
	if _, err := io.Copy(&b, r); err != nil {
		return nil, 0, fmt.Errorf("makeflow: read: %w", err)
	}
	src := b.String()
	lines = make([]logicalLine, 0, strings.Count(src, "\n")+1)
	num := 0
	next := func() string {
		num++
		line, rest, _ := strings.Cut(src, "\n")
		src = rest
		return strings.TrimSuffix(line, "\r")
	}
	for src != "" {
		text := stripComment(next())
		start := num
		for strings.HasSuffix(text, "\\") && src != "" {
			text = strings.TrimSuffix(text, "\\") + " " + strings.TrimSpace(stripComment(next()))
		}
		lines = append(lines, logicalLine{text: text, num: start})
		if text != "" && !isCommand(text) {
			rules++
		}
	}
	return lines, rules, nil
}

// isCommand reports whether a line is indented as a rule's command.
func isCommand(text string) bool {
	return strings.HasPrefix(text, "\t") || strings.HasPrefix(text, "    ")
}

func stripComment(s string) string {
	code, _, _ := strings.Cut(s, "#")
	return code
}

// splitAssignment recognizes NAME=value lines (NAME must look like an
// identifier and the '=' must come before any whitespace gap that
// would indicate a rule).
func splitAssignment(s string) (name, val string, ok bool) {
	t := strings.TrimSpace(s)
	i := strings.IndexByte(t, '=')
	if i <= 0 {
		return "", "", false
	}
	name = strings.TrimSpace(t[:i])
	if !isIdent(name) {
		return "", "", false
	}
	val = strings.TrimSpace(t[i+1:])
	val = strings.Trim(val, `"`)
	return name, val, true
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c == '_', c >= 'A' && c <= 'Z', c >= 'a' && c <= 'z':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// export handles "export NAME" and "export NAME=value" lines.
func (p *parser) export(rest string, line int) error {
	rest = strings.TrimSpace(rest)
	if rest == "" {
		return errf(line, "export without a variable name")
	}
	if name, val, ok := splitAssignment(rest); ok {
		if err := p.assign(name, val, line); err != nil {
			return err
		}
		p.exports = append(p.exports, name)
		return nil
	}
	if !isIdent(rest) {
		return errf(line, "invalid export name %q", rest)
	}
	if _, defined := p.vars[rest]; !defined && !reserved[rest] {
		return errf(line, "export of undefined variable %q", rest)
	}
	p.exports = append(p.exports, rest)
	return nil
}

func (p *parser) assign(name, val string, line int) error {
	switch name {
	case "CATEGORY":
		if val == "" {
			return errf(line, "empty CATEGORY name")
		}
		p.category = val
		if _, ok := p.catRes[val]; !ok {
			p.catRes[val] = resources.Zero
		}
	case "CORES":
		f, err := strconv.ParseFloat(val, 64)
		// Written so that NaN fails too; an out-of-range int64
		// conversion would yield a negative vector.
		if err != nil || !(f >= 0 && f*1000 < math.MaxInt64) {
			return errf(line, "bad CORES value %q", val)
		}
		v := p.catRes[p.category]
		v.MilliCPU = int64(f * 1000)
		p.catRes[p.category] = v
	case "MEMORY", "DISK":
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil || n < 0 {
			return errf(line, "bad %s value %q (MB)", name, val)
		}
		v := p.catRes[p.category]
		if name == "MEMORY" {
			v.MemoryMB = n
		} else {
			v.DiskMB = n
		}
		p.catRes[p.category] = v
	default:
		p.vars[name] = val
	}
	return nil
}

// expand substitutes $(NAME) and ${NAME} references; a line with no
// '$' comes back as it is. The text between references is copied a
// span at a time.
func (p *parser) expand(s string, line int) (string, error) {
	if strings.IndexByte(s, '$') < 0 {
		return s, nil
	}
	var b strings.Builder
	b.Grow(len(s))
	for {
		i := strings.IndexByte(s, '$')
		if i < 0 || i+1 >= len(s) {
			b.WriteString(s)
			return b.String(), nil
		}
		b.WriteString(s[:i])
		s = s[i:] // s[0] is the '$'
		var close byte
		switch s[1] {
		case '(':
			close = ')'
		case '{':
			close = '}'
		case '$': // "$$" escapes a literal dollar
			b.WriteByte('$')
			s = s[2:]
			continue
		default:
			b.WriteByte('$')
			s = s[1:]
			continue
		}
		end := strings.IndexByte(s[2:], close)
		if end < 0 {
			return "", errf(line, "unterminated variable reference %q", s)
		}
		name := s[2 : 2+end]
		if !isIdent(name) {
			return "", errf(line, "invalid variable name %q", name)
		}
		val, ok := p.vars[name]
		if !ok {
			if reserved[name] {
				val = p.reservedValue(name)
			} else {
				return "", errf(line, "undefined variable %q", name)
			}
		}
		b.WriteString(val)
		s = s[2+end+1:]
	}
}

func (p *parser) reservedValue(name string) string {
	v := p.catRes[p.category]
	switch name {
	case "CATEGORY":
		return p.category
	case "CORES":
		return strconv.FormatFloat(v.CoresValue(), 'f', -1, 64)
	case "MEMORY":
		return strconv.FormatInt(v.MemoryMB, 10)
	case "DISK":
		return strconv.FormatInt(v.DiskMB, 10)
	}
	return ""
}

func (p *parser) addRule(head string, cmds []string, line int) error {
	targets, sources, ok := strings.Cut(head, ":")
	if !ok {
		return errf(line, "rule without ':'")
	}
	p.outs = appendFields(p.outs[:0], targets)
	p.ins = appendFields(p.ins[:0], sources)
	outs, ins := p.outs, p.ins
	if len(outs) == 0 {
		return errf(line, "rule with no targets")
	}
	if len(cmds) == 0 {
		return errf(line, "rule %q has no command", outs[0])
	}
	// A command starting with Makeflow's LOCAL keyword runs at the
	// workflow manager rather than on a worker.
	local := false
	for i, c := range cmds {
		if rest, ok := strings.CutPrefix(c, "LOCAL "); ok {
			local = true
			cmds[i] = strings.TrimSpace(rest)
		}
	}
	p.ruleN++
	p.id = append(p.id[:0], "rule"...)
	p.id = strconv.AppendInt(p.id, int64(p.ruleN), 10)
	p.id = append(append(p.id, ':'), outs[0]...)
	node := dag.Node{
		ID:        string(p.id),
		Command:   strings.Join(cmds, " && "),
		Category:  p.category,
		Inputs:    ins,
		Outputs:   outs,
		Resources: p.catRes[p.category],
		Local:     local,
	}
	if err := p.graph.Add(node); err != nil {
		return errf(line, "%v", err)
	}
	return nil
}

// appendFields appends the fields of s to dst, split exactly as
// strings.Fields splits them: around each run of unicode.IsSpace
// runes, an invalid UTF-8 byte counting as a non-space.
func appendFields(dst []string, s string) []string {
	start := -1 // the current field's first byte; -1 between fields
	for i := 0; i < len(s); {
		space, size := asciiSpace[s[i]] != 0, 1
		if s[i] >= utf8.RuneSelf {
			var r rune
			r, size = utf8.DecodeRuneInString(s[i:])
			space = unicode.IsSpace(r)
		}
		if !space {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			dst = append(dst, s[start:i])
			start = -1
		}
		i += size
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [256]uint8{'\t': 1, '\n': 1, '\v': 1, '\f': 1, '\r': 1, ' ': 1}
