package mcgraph

import (
	"fmt"

	"mcretiming/internal/graph"
	"mcretiming/internal/logic"
	"mcretiming/internal/netlist"
	"mcretiming/internal/rterr"
)

// VKind classifies mc-graph vertices.
type VKind uint8

// Vertex kinds. KCtrlOut vertices are the paper's §3.2 output vertices
// introduced for every control signal (except clocks) so that retiming
// keeps those signals intact.
const (
	KHost VKind = iota
	KPI
	KPO
	KCtrlOut
	KGate
)

// Vertex is an mc-graph vertex.
type Vertex struct {
	Kind   VKind
	Gate   netlist.GateID // valid for KGate
	Delay  int64
	Name   string
	Pinned bool // host, ports and control outputs: r(v) must stay 0
}

// SinkKind says what an edge's sink pin reconnects to when the retimed
// netlist is rebuilt.
type SinkKind uint8

// Edge sink kinds.
const (
	SinkNone   SinkKind = iota // host edges and similar bookkeeping
	SinkGateIn                 // input pin SinkPin of gate SinkGate
	SinkPO                     // primary output SinkPO
	SinkCtrl                   // a control-signal tap (never rewired)
)

// Edge is an mc-graph edge: a connection from the output of one vertex to an
// input of another, carrying an ordered register sequence (Regs[0] closest
// to the source).
type Edge struct {
	From, To graph.VertexID
	Regs     []RegInst
	// NoMove marks control-net and port edges: registers may neither enter
	// nor leave (any mc-step that would push or pop here is invalid).
	NoMove bool

	SrcSignal netlist.SignalID
	SinkKind  SinkKind
	SinkGate  netlist.GateID
	SinkPin   int32
	SinkPO    int32
}

// MC is a multiple-class retiming graph bound to the netlist it models.
type MC struct {
	Ckt     *netlist.Circuit
	Verts   []Vertex
	Edges   []Edge
	Classes []Class

	// out[v] and in[v] are the indices of the edges leaving and entering v,
	// in edge order: windows into one array each, laid out once Build has
	// every edge. They never change afterwards, so clones share them.
	out, in [][]int32
	// vertexOfGate and vertexOfPI map gate and signal IDs to vertices (0,
	// the host, where none); classOfReg maps register IDs to classes. Clones
	// share them too.
	vertexOfGate []graph.VertexID
	vertexOfPI   []graph.VertexID
	classOfReg   []ClassID
	nextSerial   int64
}

// Build constructs the mc-graph of c. The circuit must validate; a failure
// wraps rterr.ErrMalformedInput.
func Build(c *netlist.Circuit) (*MC, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("mcgraph: %v: %w", err, rterr.ErrMalformedInput)
	}
	m := &MC{
		Ckt:          c,
		vertexOfGate: make([]graph.VertexID, len(c.Gates)),
		vertexOfPI:   make([]graph.VertexID, len(c.Signals)),
		classOfReg:   make([]ClassID, len(c.Regs)),
	}
	m.nextSerial = int64(len(c.Regs)) + 1

	// Classify registers (Definition 1).
	cl := newClassifier()
	c.LiveRegs(func(r *netlist.Reg) {
		m.classOfReg[r.ID] = cl.intern(classKeyOf(c, r))
	})
	m.Classes = cl.classes

	// Size the vertex and edge tables once: the host, one vertex per live
	// gate, port and control net (at most three per class), and one edge
	// per gate input pin, input port, and output port or control net side.
	nv, ne := 1+len(c.PIs)+len(c.POs)+3*len(m.Classes), len(c.PIs)+2*len(c.POs)+6*len(m.Classes)
	c.LiveGates(func(g *netlist.Gate) {
		nv++
		ne += len(g.In)
	})
	m.Verts = make([]Vertex, 0, nv)
	m.Edges = make([]Edge, 0, ne)
	m.addVertex(Vertex{Kind: KHost, Name: "host", Pinned: true})

	// Vertices for gates and ports.
	c.LiveGates(func(g *netlist.Gate) {
		m.vertexOfGate[g.ID] = m.addVertex(Vertex{
			Kind: KGate, Gate: g.ID, Delay: g.Delay, Name: g.Name,
		})
	})
	for _, pi := range c.PIs {
		v := m.addVertex(Vertex{Kind: KPI, Name: c.SignalName(pi), Pinned: true})
		m.vertexOfPI[pi] = v
		m.Edges = append(m.Edges, Edge{From: graph.Host, To: v, NoMove: true, SrcSignal: netlist.NoSignal})
	}

	// Data edges: one per gate input pin.
	var err error
	c.LiveGates(func(g *netlist.Gate) {
		if err != nil {
			return
		}
		gv := m.vertexOfGate[g.ID]
		for pin, in := range g.In {
			src, regs, werr := m.walkBack(in)
			if werr != nil {
				err = werr
				return
			}
			m.Edges = append(m.Edges, Edge{
				From: src, To: gv, Regs: regs, SrcSignal: m.srcSignal(in, regs),
				SinkKind: SinkGateIn, SinkGate: g.ID, SinkPin: int32(pin),
			})
		}
	})
	if err != nil {
		return nil, err
	}

	// Primary outputs.
	for i, po := range c.POs {
		pov := m.addVertex(Vertex{Kind: KPO, Name: c.SignalName(po), Pinned: true})
		src, regs, werr := m.walkBack(po)
		if werr != nil {
			return nil, werr
		}
		m.Edges = append(m.Edges, Edge{
			From: src, To: pov, Regs: regs, SrcSignal: m.srcSignal(po, regs),
			SinkKind: SinkPO, SinkPO: int32(i),
		})
		m.Edges = append(m.Edges, Edge{From: pov, To: graph.Host, NoMove: true, SrcSignal: netlist.NoSignal})
	}

	// Control-signal output vertices (§3.2): one per distinct control net
	// of any class, excluding clocks. Their edges are frozen so retiming can
	// neither delay a control signal nor strand registers on its net.
	ctrlSeen := make(map[netlist.SignalID]bool)
	for _, cls := range m.Classes {
		for _, sig := range []netlist.SignalID{cls.EN, cls.SR, cls.AR} {
			if sig == netlist.NoSignal || ctrlSeen[sig] {
				continue
			}
			ctrlSeen[sig] = true
			cv := m.addVertex(Vertex{
				Kind: KCtrlOut, Name: "ctrl:" + c.SignalName(sig), Pinned: true,
			})
			src, regs, werr := m.walkBack(sig)
			if werr != nil {
				return nil, werr
			}
			m.Edges = append(m.Edges, Edge{
				From: src, To: cv, Regs: regs, NoMove: true,
				SrcSignal: m.srcSignal(sig, regs), SinkKind: SinkCtrl,
			})
			m.Edges = append(m.Edges, Edge{From: cv, To: graph.Host, NoMove: true, SrcSignal: netlist.NoSignal})
		}
	}
	m.out = graph.Adjacency(len(m.Verts), len(m.Edges), func(i int) graph.VertexID { return m.Edges[i].From })
	m.in = graph.Adjacency(len(m.Verts), len(m.Edges), func(i int) graph.VertexID { return m.Edges[i].To })
	return m, nil
}

func (m *MC) addVertex(v Vertex) graph.VertexID {
	id := graph.VertexID(len(m.Verts))
	m.Verts = append(m.Verts, v)
	return id
}

// walkBack follows sig backwards through register chains to its driving
// vertex, returning the vertex and the register sequence source-first.
func (m *MC) walkBack(sig netlist.SignalID) (graph.VertexID, []RegInst, error) {
	var rev []RegInst // sink-first while walking
	for {
		d := m.Ckt.Signals[sig].Driver
		switch d.Kind {
		case netlist.DriverReg:
			r := &m.Ckt.Regs[d.Reg]
			cls := m.classOfReg[r.ID]
			s, a := r.SRVal, r.ARVal
			if !m.Classes[cls].HasSR() {
				s = logic.BX
			}
			if !m.Classes[cls].HasAR() {
				a = logic.BX
			}
			rev = append(rev, RegInst{Class: cls, S: s, A: a, Orig: r.ID, Serial: int64(r.ID)})
			sig = r.D
		case netlist.DriverGate:
			// Reverse to source-first order.
			for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
				rev[i], rev[j] = rev[j], rev[i]
			}
			return m.vertexOfGate[d.Gate], rev, nil
		case netlist.DriverInput:
			for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
				rev[i], rev[j] = rev[j], rev[i]
			}
			return m.vertexOfPI[sig], rev, nil
		default:
			return 0, nil, fmt.Errorf("mcgraph: signal %s is undriven", m.Ckt.SignalName(sig))
		}
	}
}

// srcSignal returns the signal at the source end of an edge: the walked-back
// driver output if registers were traversed, else the sink signal itself.
func (m *MC) srcSignal(sinkSig netlist.SignalID, regs []RegInst) netlist.SignalID {
	sig := sinkSig
	for range regs {
		d := m.Ckt.Signals[sig].Driver
		sig = m.Ckt.Regs[d.Reg].D
	}
	return sig
}

// Out returns the indices of edges leaving v; In those entering it.
func (m *MC) Out(v graph.VertexID) []int32 { return m.out[v] }

// In returns the indices of edges entering v.
func (m *MC) In(v graph.VertexID) []int32 { return m.in[v] }

// NumRegInstances returns the total number of register instances on edges
// (a physical register fanning out to k sinks is counted k times).
func (m *MC) NumRegInstances() int {
	n := 0
	for i := range m.Edges {
		n += len(m.Edges[i].Regs)
	}
	return n
}

// Clone deep-copies the mc-graph's vertices, edges and register sequences,
// sharing the underlying netlist, which the clone never mutates, and the
// adjacency and ID maps, which never change after Build.
func (m *MC) Clone() *MC {
	cp := &MC{
		Ckt:          m.Ckt,
		Verts:        append([]Vertex(nil), m.Verts...),
		Edges:        make([]Edge, len(m.Edges)),
		Classes:      append([]Class(nil), m.Classes...),
		out:          m.out,
		in:           m.in,
		vertexOfGate: m.vertexOfGate,
		vertexOfPI:   m.vertexOfPI,
		classOfReg:   m.classOfReg,
		nextSerial:   m.nextSerial,
	}
	for i := range m.Edges {
		cp.Edges[i] = m.Edges[i]
		cp.Edges[i].Regs = append([]RegInst(nil), m.Edges[i].Regs...)
	}
	return cp
}

// ToGraph projects the mc-graph onto a basic retiming graph: same vertex
// indices, edge weights = register sequence lengths.
//
// Host-adjacent edges are omitted: every port is pinned at r=0, so those
// edges carry no constraints, and keeping them would close zero-weight
// cycles through the host for any combinational input-to-output path (the
// environment is not combinational).
func (m *MC) ToGraph() *graph.Graph {
	delay, name := m.vertexTables()
	var edges []graph.Edge
	for i := range m.Edges {
		e := &m.Edges[i]
		if e.From == graph.Host || e.To == graph.Host {
			continue
		}
		edges = append(edges, graph.Edge{From: e.From, To: e.To, W: int32(len(e.Regs))})
	}
	return graph.FromEdges(delay, name, edges)
}

// vertexTables returns the delays and names of the projected graph's
// vertices, which are m's own.
func (m *MC) vertexTables() ([]int64, []string) {
	delay := make([]int64, len(m.Verts))
	name := make([]string, len(m.Verts))
	for i := range m.Verts {
		delay[i], name[i] = m.Verts[i].Delay, m.Verts[i].Name
	}
	return delay, name
}

// ClassOfReg returns the class of netlist register id.
func (m *MC) ClassOfReg(id netlist.RegID) ClassID { return m.classOfReg[id] }

// VertexOfGate returns the mc-graph vertex modeling gate id. The ECO delta
// flow uses it to patch a single vertex delay in place of a full rebuild.
func (m *MC) VertexOfGate(id netlist.GateID) (graph.VertexID, bool) {
	if int(id) < 0 || int(id) >= len(m.vertexOfGate) || m.vertexOfGate[id] == graph.Host {
		return 0, false
	}
	return m.vertexOfGate[id], true
}
