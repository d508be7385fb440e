package graph

// Fixtures for the external graph_test package, whose tests compare the
// production solvers with internal/oracle (which imports graph, so they
// cannot live in package graph).
var (
	Correlator          = correlator
	RandomSolvableGraph = randomSolvableGraph
	RandLadderGraph     = randLadderGraph
)
