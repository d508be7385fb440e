// Serving example: a minimal client for the mcretimed HTTP API.
//
// Start the daemon, then retime a BLIF circuit over HTTP:
//
//	go run ./cmd/mcretimed -addr :8472 &
//	go run ./examples/server -addr http://localhost:8472 examples/server/quickstart.blif
//
// The client submits the circuit with ?wait=1 (block until done), prints the
// report to stderr, and writes the retimed BLIF to stdout — mirroring what
// `mcretime -blif` does locally, so the two outputs can be diffed.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
)

type retimeRequest struct {
	BLIF    string         `json:"blif"`
	Options map[string]any `json:"options,omitempty"`
}

type jobReply struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Result *struct {
		BLIF   string         `json:"blif"`
		Report map[string]any `json:"report"`
	} `json:"result"`
	Error *struct {
		Code   string `json:"code"`
		Detail string `json:"detail"`
	} `json:"error"`
}

func main() {
	addr := flag.String("addr", "http://localhost:8472", "mcretimed base URL")
	objective := flag.String("objective", "", `objective: "", "min-period", "min-area", "min-area-at-period"`)
	periodPS := flag.Int("period", 0, "target period in ps (for min-area-at-period)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: server-client [-addr URL] [-objective O] [-period PS] in.blif")
		os.Exit(1)
	}

	circuit, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	req := retimeRequest{BLIF: string(circuit)}
	if *objective != "" || *periodPS > 0 {
		req.Options = map[string]any{}
		if *objective != "" {
			req.Options["objective"] = *objective
		}
		if *periodPS > 0 {
			req.Options["target_period_ps"] = *periodPS
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		fatal(err)
	}

	resp, err := http.Post(*addr+"/v1/retime?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		fatal(err)
	}
	var reply jobReply
	if err := json.Unmarshal(data, &reply); err != nil {
		fatal(fmt.Errorf("non-JSON reply (HTTP %d): %s", resp.StatusCode, data))
	}
	if reply.Error != nil {
		fatal(fmt.Errorf("HTTP %d: %s: %s", resp.StatusCode, reply.Error.Code, reply.Error.Detail))
	}
	if reply.Result == nil {
		fatal(fmt.Errorf("job %s finished with status %q and no result", reply.ID, reply.Status))
	}

	rep := reply.Result.Report
	fmt.Fprintf(os.Stderr, "%s: period %.1f -> %.1f ns, FF %.0f -> %.0f\n",
		reply.ID,
		num(rep, "period_before_ps")/1000, num(rep, "period_after_ps")/1000,
		num(rep, "regs_before"), num(rep, "regs_after"))
	fmt.Print(reply.Result.BLIF)
}

// num reads a numeric report field, tolerating its absence.
func num(m map[string]any, key string) float64 {
	v, _ := m[key].(float64)
	return v
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "server-client:", err)
	os.Exit(1)
}
