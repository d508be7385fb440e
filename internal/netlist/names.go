package netlist

import "strconv"

// UniqueSignalNames returns one name per signal, guaranteed distinct:
// serialization must never merge two signals because circuit passes (e.g.
// the technology mapper) mixed imported names with generated ones.
// Colliding names get a "__dupN" suffix; empty names become "nID".
func (c *Circuit) UniqueSignalNames() []string {
	names := make([]string, len(c.Signals))
	seen := make(map[string]bool, len(c.Signals))
	for i := range c.Signals {
		name := c.Signals[i].Name
		if name == "" {
			name = generatedName('n', i)
		}
		if seen[name] {
			base := name
			for k := 1; ; k++ {
				name = base + "__dup" + strconv.Itoa(k)
				if !seen[name] {
					break
				}
			}
		}
		seen[name] = true
		names[i] = name
	}
	return names
}

// generatedName returns prefix followed by the decimal id, "n12" for
// ('n', 12): the name of an object created without one.
func generatedName(prefix byte, id int) string {
	var buf [24]byte
	buf[0] = prefix
	return string(strconv.AppendInt(buf[:1], int64(id), 10))
}
