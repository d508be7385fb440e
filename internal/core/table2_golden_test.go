package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"mcretiming/internal/blif"
	"mcretiming/internal/gen"
	"mcretiming/internal/netlist"
	"mcretiming/internal/verify"
	"mcretiming/internal/xc4000"
)

// table2GoldenSums pins the SHA-256 of the BLIF that Retime
// (MinAreaAtMinPeriod) writes for every Table-2 input: the ten mapped
// profiles plus the mapped 2600-gate random circuit of seed 1. Unlike the
// engine-equivalence suite, whose dense oracle shares the min-cost-flow
// solver with production, these sums were recorded from the
// successive-shortest-paths solver, so a change in the flow solver that
// moved any minarea result would show here.
var table2GoldenSums = map[string]string{
	"C1":    "f1bbc4930266bdbae1c5bfeaeef551e170d7f679e1828798a38e1a1fce316d23",
	"C2":    "02dee51cdf0d70c53553b58c266d0da34c2615a86cd92513bb19ecb2b5342f51",
	"C3":    "a423cf6bec7f47c71dba5e412738627d36c45c98d0216db0b55ae6c73b641c52",
	"C4":    "156afdeddd07a86585b25c7fd079e75d36b34f7417ff72374a20257781d15a9a",
	"C5":    "593b93adf348d38616c2d8807d771d8be3471d3297ecd584affb24ede26c930f",
	"C6":    "b5d6574ef537eba069ef0df3a7b40fced70c8301d28da8d2868b99d11cdbe305",
	"C7":    "0ac96e71e848218e48f4a1f01200559dbd7f0821f4c7f22f460cbaf200adb73c",
	"C8":    "46914f73d441bb4abbb78ae7119926612a4bed73dfd726bbe91f14d4cf307771",
	"C9":    "a3dbd1961bd360cf6a77a57a003f30bf0acd27e47c3800d0dee73da0991a20c3",
	"C10":   "ebb97eace6b1cec0f8ee2bd98b529126069edc3b23b7d21193054d6fa675398f",
	"rand1": "49ea557eddebe7f3fae9b0530ffd1de1ac8bcbc129c13cd6c103e03f3eafa7bf",
}

func TestTable2GoldenSums(t *testing.T) {
	inputs := map[string]*netlist.Circuit{"rand1": gen.Random(1, 2600)}
	for _, p := range gen.Profiles {
		c, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		inputs[p.Name] = c
	}
	for name, c := range inputs {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			mapped, err := xc4000.Map(xc4000.DecomposeSyncResets(c.Clone()))
			if err != nil {
				t.Fatal(err)
			}
			out, _, err := Retime(mapped, Options{Objective: MinAreaAtMinPeriod})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if err := blif.Write(h, out); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != table2GoldenSums[name] {
				t.Errorf("%s: retimed BLIF sha256 %s, want %s", name, got, table2GoldenSums[name])
			}
		})
	}
}

// table2RemapSums pins the SHA-256 of the BLIF of xc4000.Map applied to
// each Retime output of table2GoldenSums: the paper's remap step, which
// re-enters the mapper with LUT gates and merges mergeable LUT pairs. The
// golden sums above pin the first map only through the retimed circuit;
// these pin the remap itself.
var table2RemapSums = map[string]string{
	"C1":    "22c599faf563a079174b427b4d7c06223e161d6edd5a9e7c89f5be585f2b9a11",
	"C2":    "1f4f785c90e38c1346ccf051407b8f635352602e33f819e4fb8f0e11437b5a40",
	"C3":    "7477439021f26f276bc232e50a5231b2745cd6c52703bb0a132658eaada10581",
	"C4":    "175007c60ef84a97c758abe2b78be19f29daec7a7e3d9ea1b3a14e731988c560",
	"C5":    "fc01986e6b9b5732f2b465ec6bb3531062d2f830aebb750e66dc01bc0b2eddda",
	"C6":    "141b03c773bef665aef8b79938a07af960909f4a8a2c82894d279afdc44b4f4a",
	"C7":    "d2f5adffc2de10c4b5404a6c63561b7821f528cada9cba40a7dd456379c3aa2a",
	"C8":    "b29c360af88e6ba2db3875151da34a881f25e60eb3323225bc66a2ca9596c67a",
	"C9":    "c407969708ddf7f37b2c293ba1ece13dae35743b0e2cd9df7dc5931cfa87f776",
	"C10":   "62bd0adffb0a87df0e0e4f7273c5983b809e768ed65cce85e2afbe91c26c33fb",
	"rand1": "f18193d8cc68b7120c87cdea2309df21dcf807c82b64cc21823ee08e16643e26",
}

func TestTable2RemapSums(t *testing.T) {
	inputs := map[string]*netlist.Circuit{"rand1": gen.Random(1, 2600)}
	for _, p := range gen.Profiles {
		c, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		inputs[p.Name] = c
	}
	for name, c := range inputs {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			mapped, err := xc4000.Map(xc4000.DecomposeSyncResets(c.Clone()))
			if err != nil {
				t.Fatal(err)
			}
			retimed, _, err := Retime(mapped, Options{Objective: MinAreaAtMinPeriod})
			if err != nil {
				t.Fatal(err)
			}
			remapped, err := xc4000.Map(retimed)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if err := blif.Write(h, remapped); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != table2RemapSums[name] {
				t.Errorf("%s: remapped BLIF sha256 %s, want %s", name, got, table2RemapSums[name])
			}
		})
	}
}

// TestTable2ResetContract checks the §5.2 reset-state contract on the
// paper's circuits: after a reset pulse, every retimed output is known
// wherever the original's is, and equal to it. The comparison starts at
// cycle 0, with no initialization prefix to hide an output the justified
// reset states left X.
func TestTable2ResetContract(t *testing.T) {
	for _, p := range gen.Profiles {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			c, err := p.Build()
			if err != nil {
				t.Fatal(err)
			}
			in, err := xc4000.Map(xc4000.DecomposeSyncResets(c))
			if err != nil {
				t.Fatal(err)
			}
			out, _, err := Retime(in, Options{Objective: MinAreaAtMinPeriod})
			if err != nil {
				t.Fatal(err)
			}
			// A circuit without reset pins is compared from power-up: the
			// retimed one must still be known wherever the original is.
			resets := resetPIs(in)
			res, err := verify.Equivalent(in, out, verify.Stimulus{
				Cycles: 64, Seqs: 16, Skip: 0, Seed: 1, ResetPulse: resets,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.NewX != 0 {
				t.Errorf("%d of %d output samples known in the input are X after retiming", res.NewX, res.Total)
			}
			if res.Compared == 0 {
				t.Error("no known-vs-known samples")
			}
			t.Logf("reset pulse on %d inputs; %d of %d samples compared", len(resets), res.Compared, res.Total)
		})
	}
}

// resetPIs names every primary input that drives a register's synchronous
// or asynchronous set/clear pin.
func resetPIs(c *netlist.Circuit) []string {
	isPI := make(map[netlist.SignalID]bool, len(c.PIs))
	for _, pi := range c.PIs {
		isPI[pi] = true
	}
	seen := make(map[netlist.SignalID]bool)
	var names []string
	for _, r := range c.Regs {
		if r.Dead {
			continue
		}
		for _, pin := range []netlist.SignalID{r.SR, r.AR} {
			if pin != netlist.NoSignal && isPI[pin] && !seen[pin] {
				seen[pin] = true
				names = append(names, c.SignalName(pin))
			}
		}
	}
	return names
}

// goldenSumsVersion records the digest of table2GoldenSums together with the
// FingerprintVersion it was recorded under. The result store serves a stored
// retime result or sweep point to any request with the same circuit bytes
// and fingerprint, so an output change that keeps the version would make a
// warm store answer with the old bytes.
var goldenSumsVersion = struct{ version, digest string }{
	version: "explore-fp/v2",
	digest:  "5f7c5623b72b5232579a625e8e5a60ff18a69811618796f31615260c5928e243",
}

// TestGoldenSumsNeedVersionBump fails when table2GoldenSums changes while
// FingerprintVersion does not.
func TestGoldenSumsNeedVersionBump(t *testing.T) {
	names := make([]string, 0, len(table2GoldenSums))
	for name := range table2GoldenSums {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		fmt.Fprintf(h, "%s %s\n", name, table2GoldenSums[name])
	}
	digest := hex.EncodeToString(h.Sum(nil))
	switch {
	case digest != goldenSumsVersion.digest && FingerprintVersion == goldenSumsVersion.version:
		t.Fatalf("table2GoldenSums changed but FingerprintVersion is still %q: bump FingerprintVersion "+
			"so result stores stop serving the old outputs, then record {%q, %q} in goldenSumsVersion",
			FingerprintVersion, "<new version>", digest)
	case digest != goldenSumsVersion.digest || FingerprintVersion != goldenSumsVersion.version:
		t.Fatalf("record {%q, %q} in goldenSumsVersion", FingerprintVersion, digest)
	}
}
