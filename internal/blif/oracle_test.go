package blif

// The reader and writer as they were before the streaming rewrite, kept
// verbatim as test oracles: the production Read must return an identical
// circuit or an identical error on every input, and Write the same bytes.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"

	"mcretiming/internal/logic"
	"mcretiming/internal/netlist"
)

// mcregExt is one parsed "# .mcreg" extension line.
type mcregExt struct {
	en, sr, ar string
	srv, arv   logic.Bit
}

// writeOracle is Write as it was before the fmt-free writer: every
// fmt.Fprint call in place. TestWriteMatchesOracle holds Write to its bytes.
func writeOracle(w io.Writer, c *netlist.Circuit) error {
	bw := bufio.NewWriter(w)
	names := c.UniqueSignalNames()
	name := func(sig netlist.SignalID) string { return names[sig] }
	fmt.Fprintf(bw, ".model %s\n", sanitize(c.Name))
	fmt.Fprint(bw, ".inputs")
	for _, pi := range c.PIs {
		fmt.Fprintf(bw, " %s", name(pi))
	}
	fmt.Fprintln(bw)
	fmt.Fprint(bw, ".outputs")
	for _, po := range c.POs {
		fmt.Fprintf(bw, " %s", name(po))
	}
	fmt.Fprintln(bw)

	var werr error
	c.LiveRegs(func(r *netlist.Reg) {
		fmt.Fprintf(bw, ".latch %s %s re %s 3\n",
			name(r.D), name(r.Q), name(r.Clk))
		if r.HasEN() || r.HasSR() || r.HasAR() {
			fmt.Fprintf(bw, "# .mcreg %s", name(r.Q))
			if r.HasEN() {
				fmt.Fprintf(bw, " en=%s", name(r.EN))
			}
			if r.HasSR() {
				fmt.Fprintf(bw, " sr=%s:%s", name(r.SR), r.SRVal)
			}
			if r.HasAR() {
				fmt.Fprintf(bw, " ar=%s:%s", name(r.AR), r.ARVal)
			}
			fmt.Fprintln(bw)
		}
	})
	c.LiveGates(func(g *netlist.Gate) {
		if werr != nil {
			return
		}
		if len(g.In) > netlist.MaxLutInputs {
			werr = fmt.Errorf("blif: gate %s wider than %d inputs", g.Name, netlist.MaxLutInputs)
			return
		}
		fmt.Fprint(bw, ".names")
		for _, in := range g.In {
			fmt.Fprintf(bw, " %s", name(in))
		}
		fmt.Fprintf(bw, " %s\n", name(g.Out))
		tt, terr := g.TruthTable()
		if terr != nil {
			werr = terr
			return
		}
		n := len(g.In)
		for m := 0; m < 1<<n; m++ {
			if tt>>m&1 == 0 {
				continue
			}
			for b := 0; b < n; b++ {
				if m>>b&1 == 1 {
					fmt.Fprint(bw, "1")
				} else {
					fmt.Fprint(bw, "0")
				}
			}
			if n > 0 {
				fmt.Fprint(bw, " ")
			}
			fmt.Fprintln(bw, "1")
		}
		if g.Delay != 0 {
			fmt.Fprintf(bw, "# .mcdelay %s %d\n", name(g.Out), g.Delay)
		}
	})
	if werr != nil {
		return werr
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

// readOracle is Read as it was before the streaming reader: it collects
// every logical line into a slice, then judges the statements, then expands
// the stored cover rows. FuzzRead holds Read to its circuits and errors.
func readOracle(r io.Reader) (*netlist.Circuit, error) {
	c := netlist.New("unnamed")
	sigs := make(map[string]netlist.SignalID)
	sig := func(name string) netlist.SignalID {
		if id, ok := sigs[name]; ok {
			return id
		}
		id := c.AddSignal(name)
		sigs[name] = id
		return id
	}

	// Logical lines: join continuations, keep "# .mcreg" comments.
	var lines []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxLineBytes)
	var cont string
	raw := 0
	for sc.Scan() {
		raw++
		if raw > maxLines {
			return nil, malformed("more than %d lines", maxLines)
		}
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "#") {
			if strings.HasPrefix(line, "# .mcreg") || strings.HasPrefix(line, "# .mcdelay") {
				lines = append(lines, line)
			}
			continue
		}
		if strings.HasSuffix(line, "\\") {
			cont += strings.TrimSuffix(line, "\\") + " "
			if len(cont) > maxLineBytes {
				return nil, malformed("continued statement longer than %d bytes", maxLineBytes)
			}
			continue
		}
		line = strings.TrimSpace(cont + line)
		cont = ""
		if line != "" {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, malformed("line longer than %d bytes", maxLineBytes)
		}
		return nil, fmt.Errorf("blif: %w", err)
	}

	type names struct {
		args []string
		rows []string
	}
	var pending *names
	var allNames []*names
	exts := make(map[string]mcregExt)
	delays := make(map[string]int64)
	type latch struct {
		d, q, clk string
		init      byte
	}
	var latches []latch
	var outputs []string

	flush := func() {
		if pending != nil {
			allNames = append(allNames, pending)
			pending = nil
		}
	}
	for i, line := range lines {
		fields := strings.Fields(line)
		switch fields[0] {
		case ".model":
			flush()
			if len(fields) > 1 {
				c.Name = fields[1]
			}
		case ".inputs":
			flush()
			for _, name := range fields[1:] {
				id := sig(name)
				if c.Signals[id].Driver.Kind != netlist.DriverNone {
					return nil, malformed("line %d: duplicate input %q", i+1, name)
				}
				c.Signals[id].Driver = netlist.Driver{Kind: netlist.DriverInput}
				c.PIs = append(c.PIs, id)
			}
		case ".outputs":
			flush()
			outputs = append(outputs, fields[1:]...)
		case ".names":
			flush()
			if len(fields) < 2 {
				return nil, malformed("line %d: .names needs an output", i+1)
			}
			pending = &names{args: fields[1:]}
		case ".latch":
			flush()
			if len(fields) < 3 {
				return nil, malformed("line %d: .latch needs input and output", i+1)
			}
			l := latch{d: fields[1], q: fields[2], init: '3'}
			rest := fields[3:]
			if len(rest) >= 2 && isLatchType(rest[0]) {
				l.clk = rest[1]
				rest = rest[2:]
			}
			if len(rest) == 1 && len(rest[0]) == 1 {
				l.init = rest[0][0]
			}
			latches = append(latches, l)
		case "#":
			// "# .mcreg OUT k=v..."
			if len(fields) >= 3 && fields[1] == ".mcreg" {
				ext := mcregExt{srv: logic.BX, arv: logic.BX}
				for _, f := range fields[3:] {
					k, v, ok := strings.Cut(f, "=")
					if !ok {
						continue
					}
					switch k {
					case "en":
						ext.en = v
					case "sr", "ar":
						name, val, _ := strings.Cut(v, ":")
						b := parseBit(val)
						if k == "sr" {
							ext.sr, ext.srv = name, b
						} else {
							ext.ar, ext.arv = name, b
						}
					}
				}
				exts[fields[2]] = ext
			}
			// "# .mcdelay OUT D" — lenient like .mcreg: an unparseable
			// comment extension is ignored, never an error.
			if len(fields) == 4 && fields[1] == ".mcdelay" {
				var d int64
				if _, err := fmt.Sscanf(fields[3], "%d", &d); err == nil && d >= 0 {
					delays[fields[2]] = d
				}
			}
		case ".end":
			flush()
		default:
			if pending == nil {
				return nil, malformed("line %d: unexpected %q", i+1, fields[0])
			}
			pending.rows = append(pending.rows, line)
		}
	}
	flush()

	// Latches first so .names outputs never collide with register Qs.
	driven := make(map[string]bool)
	for _, l := range latches {
		if driven[l.q] {
			return nil, malformed("latch output %q driven twice", l.q)
		}
		driven[l.q] = true
		d, q := sig(l.d), sig(l.q)
		var clk netlist.SignalID = netlist.NoSignal
		if l.clk != "" {
			clk = sig(l.clk)
		} else {
			clk = sig("clk") // BLIF allows a global implicit clock
			if c.Signals[clk].Driver.Kind == netlist.DriverNone {
				c.Signals[clk].Driver = netlist.Driver{Kind: netlist.DriverInput}
				c.PIs = append(c.PIs, clk)
			}
		}
		rid := c.AddRegTo("", d, q, clk)
		reg := &c.Regs[rid]
		if ext, ok := exts[l.q]; ok {
			if ext.en != "" {
				reg.EN = sig(ext.en)
			}
			if ext.sr != "" {
				reg.SR = sig(ext.sr)
				reg.SRVal = ext.srv
			}
			if ext.ar != "" {
				reg.AR = sig(ext.ar)
				reg.ARVal = ext.arv
			}
		}
		// A BLIF init value becomes the sync reset value when a sync
		// control exists; otherwise it has no equivalent here.
		if reg.HasSR() && reg.SRVal == logic.BX && (l.init == '0' || l.init == '1') {
			reg.SRVal = logic.FromBool(l.init == '1')
		}
	}
	for _, nm := range allNames {
		out := nm.args[len(nm.args)-1]
		ins := nm.args[:len(nm.args)-1]
		if driven[out] {
			return nil, malformed(".names output %q driven twice", out)
		}
		driven[out] = true
		if len(ins) > netlist.MaxLutInputs {
			return nil, malformed(".names %s has %d inputs (max %d)", out, len(ins), netlist.MaxLutInputs)
		}
		tt, err := coverToTruthOracle(nm.rows, len(ins))
		if err != nil {
			return nil, malformed(".names %s: %v", out, err)
		}
		in := make([]netlist.SignalID, len(ins))
		for i, name := range ins {
			in[i] = sig(name)
		}
		c.AddGateTo(out, netlist.Lut, in, sig(out), delays[out])
		c.Gates[len(c.Gates)-1].TT = tt
	}
	for _, name := range outputs {
		id, ok := sigs[name]
		if !ok {
			return nil, malformed("output %q never defined", name)
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

// coverToTruthOracle expands a PLA cover into a truth table. Rows are
// "<pattern> <value>" with pattern characters 0, 1, -; an output value of 1
// adds the row's minterms, 0 rows define the off-set (then the on-set is
// the complement of their union). Mixing 1-rows and 0-rows is an error, as
// in standard BLIF.
func coverToTruthOracle(rows []string, nin int) (uint64, error) {
	if nin == 0 {
		// Constant: a single row "1" or "0" (or nothing = const 0).
		for _, row := range rows {
			switch strings.TrimSpace(row) {
			case "1":
				return 1, nil
			case "0", "":
				return 0, nil
			default:
				return 0, fmt.Errorf("bad constant row %q", row)
			}
		}
		return 0, nil
	}
	var on, off uint64
	seenOn, seenOff := false, false
	for _, row := range rows {
		fields := strings.Fields(row)
		if len(fields) != 2 {
			return 0, fmt.Errorf("bad cover row %q", row)
		}
		pat, val := fields[0], fields[1]
		if len(pat) != nin {
			return 0, fmt.Errorf("row %q: pattern width %d, want %d", row, len(pat), nin)
		}
		var mask uint64
		addMintermsOracle(&mask, pat, 0, 0)
		switch val {
		case "1":
			on |= mask
			seenOn = true
		case "0":
			off |= mask
			seenOff = true
		default:
			return 0, fmt.Errorf("row %q: output %q", row, val)
		}
	}
	if seenOn && seenOff {
		return 0, fmt.Errorf("cover mixes on-set and off-set rows")
	}
	if seenOff {
		full := uint64(1)<<(1<<nin) - 1
		return full &^ off, nil
	}
	return on, nil
}

// addMintermsOracle ors into mask every minterm matching pat[i:] given the
// partial assignment acc of the first i inputs.
func addMintermsOracle(mask *uint64, pat string, i int, acc int) {
	if i == len(pat) {
		*mask |= 1 << acc
		return
	}
	switch pat[i] {
	case '0':
		addMintermsOracle(mask, pat, i+1, acc)
	case '1':
		addMintermsOracle(mask, pat, i+1, acc|1<<i)
	case '-':
		addMintermsOracle(mask, pat, i+1, acc)
		addMintermsOracle(mask, pat, i+1, acc|1<<i)
	}
}
