package blif

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"mcretiming/internal/core"
	"mcretiming/internal/gen"
	"mcretiming/internal/netlist"
	"mcretiming/internal/xc4000"
)

// TestWriteMatchesOracle holds Write to writeOracle's bytes on 128
// circuits: the ten Table-2 profiles, gen.Random seeds 1–20 at 300 gates,
// gen.Random(1, 2600) and the 32×300 plain/enable pipeline, each as
// generated, mapped, retimed and remapped.
func TestWriteMatchesOracle(t *testing.T) {
	var inputs []*netlist.Circuit
	for _, p := range gen.Profiles {
		c, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, c)
	}
	for seed := int64(1); seed <= 20; seed++ {
		inputs = append(inputs, gen.Random(seed, 300))
	}
	inputs = append(inputs, gen.Random(1, 2600))
	pipe, err := gen.ScalePipeline(1, 32, 300, gen.ClassMix{Plain: 1, EN: 1})
	if err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, pipe)

	n := 0
	check := func(stage string, c *netlist.Circuit) {
		t.Helper()
		n++
		var got, want bytes.Buffer
		if err := Write(&got, c); err != nil {
			t.Fatalf("%s %s: %v", c.Name, stage, err)
		}
		if err := writeOracle(&want, c); err != nil {
			t.Fatalf("%s %s: oracle: %v", c.Name, stage, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s %s: %d bytes differ from the oracle's %d", c.Name, stage, got.Len(), want.Len())
		}
	}
	for _, c := range inputs {
		check("generated", c)
		mapped, err := xc4000.Map(xc4000.DecomposeSyncResets(c.Clone()))
		if err != nil {
			t.Fatalf("%s: map: %v", c.Name, err)
		}
		check("mapped", mapped)
		retimed, _, err := core.Retime(mapped, core.Options{Objective: core.MinAreaAtMinPeriod})
		if err != nil {
			t.Fatalf("%s: retime: %v", c.Name, err)
		}
		check("retimed", retimed)
		remapped, err := xc4000.Map(retimed)
		if err != nil {
			t.Fatalf("%s: remap: %v", c.Name, err)
		}
		check("remapped", remapped)
	}
	if n != 128 {
		t.Fatalf("checked %d circuits, want 128", n)
	}
}

// TestReadLimitsMatchOracle covers what fuzz inputs are too small to reach:
// the line and statement limits, alone and after a statement error, and a
// failing reader. Read must return the oracle's error on each.
func TestReadLimitsMatchOracle(t *testing.T) {
	const bad = ".model x\nbogus\n"
	manyLines := strings.Repeat("\n", maxLines+1)
	longCont := strings.Repeat(strings.Repeat("a", 1<<16)+" \\\n", 17) + "b\n"
	cases := []struct {
		name string
		src  func() io.Reader
	}{
		{"too many lines", func() io.Reader { return strings.NewReader(manyLines) }},
		{"statement error then too many lines", func() io.Reader { return strings.NewReader(bad + manyLines) }},
		{"continued statement too long", func() io.Reader { return strings.NewReader(longCont) }},
		{"statement error then continued statement too long", func() io.Reader { return strings.NewReader(bad + longCont) }},
		{"statement error then reader error", func() io.Reader {
			return io.MultiReader(strings.NewReader(bad), iotest.ErrReader(errors.New("disk on fire")))
		}},
		{"line at the limit", func() io.Reader {
			return strings.NewReader(".model " + strings.Repeat("m", maxLineBytes-len(".model ")) + "\n.end\n")
		}},
	}
	for _, tc := range cases {
		c, err := Read(tc.src())
		want, werr := readOracle(tc.src())
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Errorf("%s: error %v, oracle says %v", tc.name, err, werr)
		}
		if !reflect.DeepEqual(c, want) {
			t.Errorf("%s: circuit differs from the oracle's", tc.name)
		}
	}
}

// TestParseDelayMatchesSscanf holds parseDelay to the fmt.Sscanf("%d")
// rule readOracle applies to "# .mcdelay" values, on the edge cases of a
// sign, trailing junk, overflow and non-decimal digits.
func TestParseDelayMatchesSscanf(t *testing.T) {
	for _, s := range []string{
		"0", "7", "12abc", "+5", "+12abc", "-0", "-1", "+", "-", "++5", "+-5",
		"abc", "1_2", "0x10", "007", "9223372036854775807",
		"9223372036854775808", "-9223372036854775808", "99999999999999999999x",
		"\u0661\u0662", "5\u00e9",
	} {
		var want int64
		_, err := fmt.Sscanf(s, "%d", &want)
		wantOK := err == nil && want >= 0
		got, ok := parseDelay([]byte(s))
		if ok != wantOK || ok && got != want {
			t.Errorf("parseDelay(%q) = %d, %v; Sscanf gives %d, %v", s, got, ok, want, wantOK)
		}
	}
}

// BenchmarkDeepPipe reads and writes the 32×300 plain/enable pipeline
// (about 1.6 MB of BLIF) with the production code and with the oracles.
func BenchmarkDeepPipe(b *testing.B) {
	pipe, err := gen.ScalePipeline(1, 32, 300, gen.ClassMix{Plain: 1, EN: 1})
	if err != nil {
		b.Fatal(err)
	}
	var src bytes.Buffer
	if err := Write(&src, pipe); err != nil {
		b.Fatal(err)
	}
	reads := map[string]func(io.Reader) (*netlist.Circuit, error){"Read": Read, "readOracle": readOracle}
	writes := map[string]func(io.Writer, *netlist.Circuit) error{"Write": Write, "writeOracle": writeOracle}
	for _, name := range []string{"Read", "readOracle"} {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(src.Len()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := reads[name](bytes.NewReader(src.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, name := range []string{"Write", "writeOracle"} {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(src.Len()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := writes[name](io.Discard, pipe); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
