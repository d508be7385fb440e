package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestSubmitValidation pins every admission rejection of the three submit
// endpoints: status, code and detail. A single submission's errors carry no
// prefix; a batch member's carry "jobs[i]: " — except the 403 for failpoints
// on a server that disables them, which is about the server, not the member.
// No rejected request may admit a job.
func TestSubmitValidation(t *testing.T) {
	good := testBLIF(t)
	blifJSON, _ := json.Marshal(good)
	const badBLIF = `".model broken\n.wat\n"`
	const blifDetail = `blif: line 2: unexpected ".wat": malformed input`
	const disabled = "failpoints are disabled on this server (start with -failpoints)"
	const fpDetail = `failpoint: bad term "nonsense" (want site=action)`

	member := func(fields string) string { return `{"blif":` + string(blifJSON) + fields + `}` }
	bad := func(fields string) string { return `{"blif":` + badBLIF + fields + `}` }

	cases := []struct {
		name       string
		failpoints bool // server started with EnableFailpoints
		path       string
		body       string
		status     int
		code       string
		detail     string
	}{
		{"retime/malformed-json", false, "/v1/retime", `{"blif": `,
			400, CodeBadRequest, "decoding request: unexpected end of JSON input"},
		{"retime/wrong-type", false, "/v1/retime", `{"blif": 7}`,
			400, CodeBadRequest, "decoding request: json: cannot unmarshal number into Go struct field retimeRequest.blif of type string"},
		{"retime/bad-blif", false, "/v1/retime", bad(``),
			400, "malformed_input", blifDetail},
		{"retime/bad-objective", false, "/v1/retime", member(`,"options":{"objective":"maximize-vibes"}`),
			400, CodeBadRequest, `unknown objective "maximize-vibes"`},
		{"retime/missing-target", false, "/v1/retime", member(`,"options":{"objective":"min-area-at-period"}`),
			400, CodeBadRequest, `objective "min-area-at-period" requires target_period_ps > 0`},
		{"retime/failpoints-disabled", false, "/v1/retime", member(`,"failpoints":"server.job=panic"`),
			403, CodeBadRequest, disabled},
		{"retime/malformed-failpoints", true, "/v1/retime", member(`,"failpoints":"nonsense"`),
			400, CodeBadRequest, fpDetail},
		{"explore/malformed-json", false, "/v1/explore", `[`,
			400, CodeBadRequest, "decoding request: unexpected end of JSON input"},
		{"explore/bad-blif", false, "/v1/explore", bad(``),
			400, "malformed_input", blifDetail},
		{"explore/bad-objective", false, "/v1/explore", member(`,"options":{"objective":"maximize-vibes"}`),
			400, CodeBadRequest, `unknown objective "maximize-vibes"`},
		{"explore/failpoints-disabled", false, "/v1/explore", member(`,"failpoints":"server.job=panic"`),
			403, CodeBadRequest, disabled},
		{"explore/malformed-failpoints", true, "/v1/explore", member(`,"failpoints":"nonsense"`),
			400, CodeBadRequest, fpDetail},
		{"batch/malformed-json", false, "/v1/batch", `{"jobs": [`,
			400, CodeBadRequest, "decoding request: unexpected end of JSON input"},
		{"batch/wrong-type", false, "/v1/batch", `{"jobs": [{"blif": 7}]}`,
			400, CodeBadRequest, "decoding request: json: cannot unmarshal number into Go struct field batchJobSpec.jobs.blif of type string"},
		{"batch/empty", false, "/v1/batch", `{"jobs": []}`,
			400, CodeBadRequest, "a batch needs at least one job"},
		{"batch/no-jobs-field", false, "/v1/batch", `{}`,
			400, CodeBadRequest, "a batch needs at least one job"},
		{"batch/unknown-kind", false, "/v1/batch", `{"jobs": [` + member(``) + `,` + member(`,"kind":"sweep"`) + `]}`,
			400, CodeBadRequest, `jobs[1]: unknown kind "sweep" (use "retime" or "explore")`},
		{"batch/bad-blif", false, "/v1/batch", `{"jobs": [` + member(``) + `,` + bad(`,"kind":"explore"`) + `]}`,
			400, "malformed_input", "jobs[1]: " + blifDetail},
		{"batch/bad-objective", false, "/v1/batch", `{"jobs": [` + member(`,"options":{"objective":"maximize-vibes"}`) + `]}`,
			400, CodeBadRequest, `jobs[0]: unknown objective "maximize-vibes"`},
		{"batch/failpoints-disabled", false, "/v1/batch", `{"jobs": [` + member(``) + `,` + member(`,"failpoints":"server.job=panic"`) + `]}`,
			403, CodeBadRequest, disabled},
		{"batch/malformed-failpoints", true, "/v1/batch", `{"jobs": [` + member(``) + `,` + member(`,"failpoints":"nonsense"`) + `]}`,
			400, CodeBadRequest, "jobs[1]: " + fpDetail},
	}

	off, offHS := newTestServer(t, Config{Logf: quiet})
	on, onHS := newTestServer(t, Config{Logf: quiet, EnableFailpoints: true})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := offHS.URL
			if tc.failpoints {
				base = onHS.URL
			}
			resp, err := http.Post(base+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var got struct {
				Error ErrorBody `json:"error"`
			}
			if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&got); err != nil {
				t.Fatalf("undecodable error body %q: %v", raw, err)
			}
			if resp.StatusCode != tc.status || got.Error.Code != tc.code || got.Error.Detail != tc.detail {
				t.Fatalf("got %d %q %q\nwant %d %q %q",
					resp.StatusCode, got.Error.Code, got.Error.Detail, tc.status, tc.code, tc.detail)
			}
		})
	}
	for _, s := range []*Server{off, on} {
		if n := s.submitted.Load(); n != 0 {
			t.Errorf("rejected submissions admitted %d job(s)", n)
		}
	}
}
