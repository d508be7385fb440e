package blif

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"mcretiming/internal/rterr"
)

// FuzzRead throws arbitrary bytes at the BLIF reader. The contract under
// fuzzing: the reader never crashes, it returns the circuit or the error
// readOracle returns, every rejection wraps ErrMalformedInput (so callers
// can classify it), and every accepted circuit validates, writes the bytes
// writeOracle writes, and survives a Write→Read round trip.
func FuzzRead(f *testing.F) {
	f.Add([]byte(sampleBlif))
	f.Add([]byte(".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n"))
	f.Add([]byte(".model m\n.inputs d clk\n.outputs q\n.latch d q re clk 0\n.end\n"))
	f.Add([]byte(".model m\n.inputs a b\n.outputs y\n.names a b y\n1- 1\n-1 1\n.end\n"))
	f.Add([]byte("# just a comment\n"))
	f.Add([]byte(".model \\\nsplit\n.end\n"))
	f.Add([]byte(".names y\n.latch y y re c 3\n"))
	f.Add([]byte(".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n# .mcdelay y +12abc\n.end\n"))
	f.Add([]byte(".model m\n.inputs d e r\n.outputs q\n.latch d q 1\n# .mcreg q en=e sr=r:x ar=:1\n.end\n"))
	f.Add([]byte(".model m\n.inputs a\u00a0b\n.outputs y\n.names a\u00a0b y\n1\v1 1\n.end\n"))
	f.Add([]byte(".model m\n.inputs a b c d e f g\n.outputs y\n.names a b c d e f g y\n------- 1\n.end\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Read(bytes.NewReader(data))
		want, werr := readOracle(bytes.NewReader(data))
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("error %v, oracle says %v", err, werr)
		}
		if err != nil {
			if !errors.Is(err, rterr.ErrMalformedInput) {
				t.Fatalf("rejection %v does not wrap ErrMalformedInput", err)
			}
			return
		}
		if !reflect.DeepEqual(c, want) {
			t.Fatalf("circuit differs from the oracle's:\n%+v\nvs\n%+v", c, want)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("accepted circuit does not validate: %v", err)
		}
		var buf, old strings.Builder
		if err := Write(&buf, c); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		if err := writeOracle(&old, c); err != nil {
			t.Fatalf("oracle write-back failed: %v", err)
		}
		if buf.String() != old.String() {
			t.Fatalf("Write differs from the oracle:\n%s\nvs\n%s", buf.String(), old.String())
		}
		if _, err := Read(strings.NewReader(buf.String())); err != nil {
			t.Fatalf("round trip rejected our own output: %v\n%s", err, buf.String())
		}
	})
}
