// Package blif reads and writes Berkeley Logic Interchange Format netlists,
// the lingua franca of academic logic-synthesis tools (SIS, ABC, VPR).
//
// Supported subset:
//
//	.model NAME
//	.inputs  SIG...      (continuation lines with trailing \ allowed)
//	.outputs SIG...
//	.names IN... OUT     followed by PLA cover rows ("1-0 1")
//	.latch IN OUT [re|fe|ah|al|as CONTROL] [INIT]
//	.end
//
// Logic functions wider than netlist.MaxLutInputs are rejected (decompose
// first). Standard BLIF latches know only a clock and a power-up value, so
// the paper's generic registers round-trip through a comment extension that
// other tools ignore:
//
//	# .mcreg OUT en=SIG sr=SIG:V ar=SIG:V
//
// attaching load-enable and set/clear controls to the latch driving OUT.
// BLIF init values 0/1 are recorded as synchronous reset values only when
// the latch has a sync control via the extension; otherwise they are
// dropped (this package models power-up state as unknown).
//
// Gate propagation delays round-trip through a second comment extension,
//
//	# .mcdelay OUT D
//
// giving the gate driving OUT a delay of D picoseconds. Standard BLIF has
// no delay model, so without this line a parsed gate has delay 0; gates
// with delay 0 emit no line, keeping plain-BLIF output unchanged. The
// extension is what lets a retiming cluster ship a timed circuit to a
// worker as text and get byte-identical results back.
//
// Read streams: it judges each logical line as the scanner delivers it and
// folds each cover row into its .names truth table on arrival, so no line
// outlives its scan. It accepts at most 1<<20 lines and 1<<20 bytes per
// statement, and a scanner error anywhere in the input wins over any
// statement error before it.
package blif

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"mcretiming/internal/logic"
	"mcretiming/internal/netlist"
	"mcretiming/internal/rterr"
)

// Reader limits: a single line (after continuation joining this bounds one
// statement) and the number of lines accepted before the input is rejected
// as hostile rather than merely large.
const (
	maxLineBytes = 1 << 20
	maxLines     = 1 << 20
)

// malformed wraps a reader diagnosis in the taxonomy's bad-input sentinel.
func malformed(format string, args ...any) error {
	return fmt.Errorf("blif: "+format+": %w", append(args, rterr.ErrMalformedInput)...)
}

// Write serializes c as BLIF.
func Write(w io.Writer, c *netlist.Circuit) error {
	bw := bufio.NewWriter(w)
	names := c.UniqueSignalNames()
	// list writes " NAME" for every signal of sigs.
	list := func(sigs []netlist.SignalID) {
		for _, s := range sigs {
			bw.WriteByte(' ')
			bw.WriteString(names[s])
		}
	}
	bw.WriteString(".model ")
	bw.WriteString(sanitize(c.Name))
	bw.WriteString("\n.inputs")
	list(c.PIs)
	bw.WriteString("\n.outputs")
	list(c.POs)
	bw.WriteByte('\n')

	c.LiveRegs(func(r *netlist.Reg) {
		bw.WriteString(".latch ")
		bw.WriteString(names[r.D])
		bw.WriteByte(' ')
		bw.WriteString(names[r.Q])
		bw.WriteString(" re ")
		bw.WriteString(names[r.Clk])
		bw.WriteString(" 3\n")
		if r.HasEN() || r.HasSR() || r.HasAR() {
			bw.WriteString("# .mcreg ")
			bw.WriteString(names[r.Q])
			if r.HasEN() {
				bw.WriteString(" en=")
				bw.WriteString(names[r.EN])
			}
			if r.HasSR() {
				bw.WriteString(" sr=")
				bw.WriteString(names[r.SR])
				bw.WriteByte(':')
				bw.WriteString(r.SRVal.String())
			}
			if r.HasAR() {
				bw.WriteString(" ar=")
				bw.WriteString(names[r.AR])
				bw.WriteByte(':')
				bw.WriteString(r.ARVal.String())
			}
			bw.WriteByte('\n')
		}
	})
	var werr error
	// Scratch for a cover row and a delay, declared once: bw.Write would
	// move a per-gate array to the heap.
	var row [netlist.MaxLutInputs + 3]byte
	var num [20]byte
	c.LiveGates(func(g *netlist.Gate) {
		if werr != nil {
			return
		}
		n := len(g.In)
		if n > netlist.MaxLutInputs {
			werr = fmt.Errorf("blif: gate %s wider than %d inputs", g.Name, netlist.MaxLutInputs)
			return
		}
		bw.WriteString(".names")
		list(g.In)
		bw.WriteByte(' ')
		bw.WriteString(names[g.Out])
		bw.WriteByte('\n')
		tt, terr := g.TruthTable()
		if terr != nil {
			werr = terr
			return
		}
		// One "PATTERN 1" row per on-set minterm, input 0 first.
		end := n
		if n > 0 {
			row[end] = ' '
			end++
		}
		row[end], row[end+1] = '1', '\n'
		for m := 0; m < 1<<n; m++ {
			if tt>>m&1 == 0 {
				continue
			}
			for b := 0; b < n; b++ {
				row[b] = '0' + byte(m>>b&1)
			}
			bw.Write(row[:end+2])
		}
		if g.Delay != 0 {
			bw.WriteString("# .mcdelay ")
			bw.WriteString(names[g.Out])
			bw.WriteByte(' ')
			bw.Write(strconv.AppendInt(num[:0], g.Delay, 10))
			bw.WriteByte('\n')
		}
	})
	if werr != nil {
		return werr
	}
	bw.WriteString(".end\n")
	return bw.Flush()
}

func sanitize(s string) string {
	if s == "" {
		return "unnamed"
	}
	return strings.ReplaceAll(s, " ", "_")
}

// Read parses a BLIF model into a circuit.
func Read(r io.Reader) (*netlist.Circuit, error) {
	p := &reader{
		c:       netlist.New("unnamed"),
		ids:     make(map[string]int32),
		exts:    make(map[int32]regExt),
		pending: -1,
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxLineBytes)
	// cont gathers a statement continued over lines ending in a backslash.
	var cont []byte
	raw := 0
	for sc.Scan() {
		raw++
		if raw > maxLines {
			return nil, malformed("more than %d lines", maxLines)
		}
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) > 0 && line[0] == '#' {
			if bytes.HasPrefix(line, []byte("# .mcreg")) || bytes.HasPrefix(line, []byte("# .mcdelay")) {
				p.statement(line)
			}
			continue
		}
		if len(line) > 0 && line[len(line)-1] == '\\' {
			cont = append(append(cont, line[:len(line)-1]...), ' ')
			if len(cont) > maxLineBytes {
				return nil, malformed("continued statement longer than %d bytes", maxLineBytes)
			}
			continue
		}
		if len(cont) > 0 {
			cont = append(cont, line...)
			line = bytes.TrimSpace(cont)
			cont = cont[:0]
		}
		if len(line) > 0 {
			p.statement(line)
		}
	}
	// Scanner errors win over statement errors: the limits hold for the
	// whole input, whatever its statements say.
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, malformed("line longer than %d bytes", maxLineBytes)
		}
		return nil, fmt.Errorf("blif: %w", err)
	}
	if p.err != nil {
		return nil, p.err
	}
	return p.finish()
}

// reader is the state of one Read. Signal names are interned into syms as
// they are scanned; a name becomes a circuit signal only where the
// whole-input order says so — inputs during the scan, then latch pins, then
// .names pins — so signal IDs do not depend on streaming.
type reader struct {
	c      *netlist.Circuit
	ids    map[string]int32 // name -> index into syms
	syms   []symbol
	fields [][]byte // the current line's fields, reused across lines
	lineNo int      // logical lines seen, comments included
	err    error    // first statement error; the scan goes on to EOF

	latches []latch
	names   []namesStmt
	pins    []int32 // every .names statement's arguments, back to back
	pending int     // index into names of the .names taking cover rows, or -1
	outputs []int32
	exts    map[int32]regExt // by the symbol of the latch output it extends
}

// symbol is one interned signal name.
type symbol struct {
	name   string
	sig    netlist.SignalID // NoSignal until the signal is created
	driven bool             // a latch or .names drives it
	delay  int64            // from "# .mcdelay"
}

// regExt is one "# .mcreg" extension line; en, sr and ar are symbol
// indices, or -1 where the line names no signal.
type regExt struct {
	en, sr, ar int32
	srv, arv   logic.Bit
}

// latch is one .latch statement; clk is -1 for the implicit global clock.
type latch struct {
	d, q, clk int32
	init      byte
}

// namesStmt is one .names statement, its cover folded in as rows arrive.
type namesStmt struct {
	lo, hi          int // its arguments: pins[lo:hi], the output last
	on, off         uint64
	seenOn, seenOff bool
	decided         bool  // a constant's first row has been read
	err             error // the first bad row
}

// statement judges one logical line.
func (p *reader) statement(line []byte) {
	p.lineNo++
	if p.err != nil {
		return
	}
	f := p.split(line)
	switch string(f[0]) {
	case ".model":
		p.pending = -1
		if len(f) > 1 {
			p.c.Name = string(f[1])
		}
	case ".inputs":
		p.pending = -1
		c := p.c
		for _, name := range f[1:] {
			id := p.sig(p.intern(name))
			if c.Signals[id].Driver.Kind != netlist.DriverNone {
				p.err = malformed("line %d: duplicate input %q", p.lineNo, name)
				return
			}
			c.Signals[id].Driver = netlist.Driver{Kind: netlist.DriverInput}
			c.PIs = append(c.PIs, id)
		}
	case ".outputs":
		p.pending = -1
		for _, name := range f[1:] {
			p.outputs = append(p.outputs, p.intern(name))
		}
	case ".names":
		p.pending = -1
		if len(f) < 2 {
			p.err = malformed("line %d: .names needs an output", p.lineNo)
			return
		}
		lo := len(p.pins)
		for _, name := range f[1:] {
			p.pins = append(p.pins, p.intern(name))
		}
		p.pending = len(p.names)
		p.names = append(p.names, namesStmt{lo: lo, hi: len(p.pins)})
	case ".latch":
		p.pending = -1
		if len(f) < 3 {
			p.err = malformed("line %d: .latch needs input and output", p.lineNo)
			return
		}
		l := latch{d: p.intern(f[1]), q: p.intern(f[2]), clk: -1, init: '3'}
		rest := f[3:]
		if len(rest) >= 2 && isLatchType(string(rest[0])) {
			l.clk = p.intern(rest[1])
			rest = rest[2:]
		}
		if len(rest) == 1 && len(rest[0]) == 1 {
			l.init = rest[0][0]
		}
		p.latches = append(p.latches, l)
	case "#":
		// "# .mcreg OUT k=v..."
		if len(f) >= 3 && string(f[1]) == ".mcreg" {
			ext := regExt{en: -1, sr: -1, ar: -1, srv: logic.BX, arv: logic.BX}
			for _, kv := range f[3:] {
				k, v, ok := bytes.Cut(kv, []byte("="))
				if !ok {
					continue
				}
				switch string(k) {
				case "en":
					ext.en = p.internOpt(v)
				case "sr", "ar":
					name, val, _ := bytes.Cut(v, []byte(":"))
					b := parseBit(string(val))
					if string(k) == "sr" {
						ext.sr, ext.srv = p.internOpt(name), b
					} else {
						ext.ar, ext.arv = p.internOpt(name), b
					}
				}
			}
			p.exts[p.intern(f[2])] = ext
		}
		// "# .mcdelay OUT D" — lenient like .mcreg: an unparseable
		// comment extension is ignored, never an error.
		if len(f) == 4 && string(f[1]) == ".mcdelay" {
			if d, ok := parseDelay(f[3]); ok {
				p.syms[p.intern(f[2])].delay = d
			}
		}
	case ".end":
		p.pending = -1
	default:
		if p.pending < 0 {
			p.err = malformed("line %d: unexpected %q", p.lineNo, f[0])
			return
		}
		nm := &p.names[p.pending]
		nm.row(line, f, nm.hi-nm.lo-1)
	}
}

// row folds one cover row of a .names with nin inputs into its truth table.
// Rows are "<pattern> <value>" with pattern characters 0, 1, -; an output
// value of 1 adds the row's minterms to the on-set, 0 to the off-set. A
// constant (nin 0) is decided by its first row alone: "1", or "0". Rows of a
// .names wider than MaxLutInputs are never expanded: finish rejects it by
// width.
func (nm *namesStmt) row(line []byte, f [][]byte, nin int) {
	if nm.err != nil || nm.decided || nin > netlist.MaxLutInputs {
		return
	}
	if nin == 0 {
		nm.decided = true
		switch string(line) {
		case "1":
			nm.on = 1
		case "0":
		default:
			nm.err = fmt.Errorf("bad constant row %q", line)
		}
		return
	}
	if len(f) != 2 {
		nm.err = fmt.Errorf("bad cover row %q", line)
		return
	}
	pat, val := f[0], f[1]
	if len(pat) != nin {
		nm.err = fmt.Errorf("row %q: pattern width %d, want %d", line, len(pat), nin)
		return
	}
	mask := uint64(1)<<(1<<nin) - 1
	for i, ch := range pat {
		switch ch {
		case '1':
			mask &= varMask[i]
		case '0':
			mask &^= varMask[i]
		case '-':
		default:
			mask = 0 // no minterm matches an unknown pattern character
		}
	}
	switch string(val) {
	case "1":
		nm.on |= mask
		nm.seenOn = true
	case "0":
		nm.off |= mask
		nm.seenOff = true
	default:
		nm.err = fmt.Errorf("row %q: output %q", line, val)
	}
}

// varMask[i] is the truth table of input i over six inputs: bit m is set
// when minterm m has input i at 1.
var varMask = [netlist.MaxLutInputs]uint64{
	0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
}

// truth returns the truth table of a .names with nin inputs. Mixing
// on-set and off-set rows is an error, as in standard BLIF; an off-set
// cover's on-set is the complement of its rows.
func (nm *namesStmt) truth(nin int) (uint64, error) {
	switch {
	case nm.err != nil:
		return 0, nm.err
	case nm.seenOn && nm.seenOff:
		return 0, errors.New("cover mixes on-set and off-set rows")
	case nm.seenOff:
		full := uint64(1)<<(1<<nin) - 1
		return full &^ nm.off, nil
	}
	return nm.on, nil
}

// finish builds what the scan recorded, in the order a whole-input reader
// would: latches first, so .names outputs never collide with register Qs,
// then the .names, then the outputs.
func (p *reader) finish() (*netlist.Circuit, error) {
	c := p.c
	if len(p.latches)+len(p.names) > 0 {
		// Every symbol may become a signal, plus an implicit clock. (Without
		// statements no slice grows: an empty circuit keeps nil slices.)
		c.Signals = slices.Grow(c.Signals, len(p.syms)+1-len(c.Signals))
		c.Regs = slices.Grow(c.Regs, len(p.latches))
		c.Gates = slices.Grow(c.Gates, len(p.names))
	}
	for _, l := range p.latches {
		if p.syms[l.q].driven {
			return nil, malformed("latch output %q driven twice", p.syms[l.q].name)
		}
		p.syms[l.q].driven = true
		d, q := p.sig(l.d), p.sig(l.q)
		var ck netlist.SignalID
		if l.clk >= 0 {
			ck = p.sig(l.clk)
		} else {
			ck = p.sig(p.intern([]byte("clk"))) // BLIF allows a global implicit clock
			if c.Signals[ck].Driver.Kind == netlist.DriverNone {
				c.Signals[ck].Driver = netlist.Driver{Kind: netlist.DriverInput}
				c.PIs = append(c.PIs, ck)
			}
		}
		rid := c.AddRegTo("", d, q, ck)
		reg := &c.Regs[rid]
		if ext, ok := p.exts[l.q]; ok {
			if ext.en >= 0 {
				reg.EN = p.sig(ext.en)
			}
			if ext.sr >= 0 {
				reg.SR = p.sig(ext.sr)
				reg.SRVal = ext.srv
			}
			if ext.ar >= 0 {
				reg.AR = p.sig(ext.ar)
				reg.ARVal = ext.arv
			}
		}
		// A BLIF init value becomes the sync reset value when a sync
		// control exists; otherwise it has no equivalent here.
		if reg.HasSR() && reg.SRVal == logic.BX && (l.init == '0' || l.init == '1') {
			reg.SRVal = logic.FromBool(l.init == '1')
		}
	}
	var in []netlist.SignalID
	for i := range p.names {
		nm := &p.names[i]
		out := p.pins[nm.hi-1]
		ins := p.pins[nm.lo : nm.hi-1]
		name := p.syms[out].name
		if p.syms[out].driven {
			return nil, malformed(".names output %q driven twice", name)
		}
		p.syms[out].driven = true
		if len(ins) > netlist.MaxLutInputs {
			return nil, malformed(".names %s has %d inputs (max %d)", name, len(ins), netlist.MaxLutInputs)
		}
		tt, err := nm.truth(len(ins))
		if err != nil {
			return nil, malformed(".names %s: %v", name, err)
		}
		in = in[:0]
		for _, s := range ins {
			in = append(in, p.sig(s))
		}
		g := c.AddGateTo(name, netlist.Lut, in, p.sig(out), p.syms[out].delay)
		c.Gates[g].TT = tt
	}
	for _, o := range p.outputs {
		id := p.syms[o].sig
		if id == netlist.NoSignal {
			return nil, malformed("output %q never defined", p.syms[o].name)
		}
		c.MarkOutput(id)
	}
	// Validate catches what the statement scan cannot see locally: dangling
	// nets, residual double drivers, arity violations, combinational cycles.
	if err := c.Validate(); err != nil {
		return nil, malformed("%v", err)
	}
	return c, nil
}

// intern returns the symbol index of name, adding it on first sight.
func (p *reader) intern(name []byte) int32 {
	if i, ok := p.ids[string(name)]; ok {
		return i
	}
	i := int32(len(p.syms))
	s := string(name)
	p.ids[s] = i
	p.syms = append(p.syms, symbol{name: s, sig: netlist.NoSignal})
	return i
}

// internOpt is intern for an optional name: -1 when it is empty.
func (p *reader) internOpt(name []byte) int32 {
	if len(name) == 0 {
		return -1
	}
	return p.intern(name)
}

// sig returns the signal of symbol i, creating it on first use.
func (p *reader) sig(i int32) netlist.SignalID {
	if p.syms[i].sig == netlist.NoSignal {
		p.syms[i].sig = p.c.AddSignal(p.syms[i].name)
	}
	return p.syms[i].sig
}

// split cuts line into fields exactly as strings.Fields would, reusing
// p.fields. ASCII lines are split here; a line with any byte at or above
// 0x80 goes to bytes.Fields, which knows Unicode white space.
func (p *reader) split(line []byte) [][]byte {
	f := p.fields[:0]
	start := -1
	for i, b := range line {
		if b >= utf8.RuneSelf {
			return bytes.Fields(line)
		}
		if asciiSpace[b] {
			if start >= 0 {
				f = append(f, line[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		f = append(f, line[start:])
	}
	p.fields = f
	return f
}

var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// parseDelay reads a "# .mcdelay" value as fmt.Sscanf's %d verb does —
// an optional sign, then the decimal digits up to the first other byte —
// and accepts it when it parses and is at least 0.
func parseDelay(s []byte) (int64, bool) {
	end := 0
	if end < len(s) && (s[end] == '+' || s[end] == '-') {
		end++
	}
	digits := end
	for end < len(s) && s[end] >= '0' && s[end] <= '9' {
		end++
	}
	if end == digits {
		return 0, false
	}
	d, err := strconv.ParseInt(string(s[:end]), 10, 64)
	return d, err == nil && d >= 0
}

func isLatchType(s string) bool {
	switch s {
	case "re", "fe", "ah", "al", "as":
		return true
	}
	return false
}

func parseBit(s string) logic.Bit {
	switch s {
	case "0":
		return logic.B0
	case "1":
		return logic.B1
	}
	return logic.BX
}
