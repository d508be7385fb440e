package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzSubmit sends arbitrary bodies to the three submit endpoints of a
// started server. Whatever the body, the server must not panic, must answer
// with an admission status, and must change its job table only by what it
// admitted: nothing for a rejection, one job for an accepted single
// submission, every member for an accepted batch.
//
//	go test ./internal/server -run='^$' -fuzz=FuzzSubmit -fuzztime=20s
func FuzzSubmit(f *testing.F) {
	paths := []string{"/v1/retime", "/v1/explore", "/v1/batch"}
	seed := func(path int, body any) {
		data, err := json.Marshal(body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(path), data)
	}
	good := testBLIF(f)
	seed(0, retimeRequest{BLIF: good})
	seed(0, retimeRequest{BLIF: good, Options: JobOptions{Objective: "min-period", TimeoutMS: -1}})
	seed(0, retimeRequest{BLIF: ".model broken\n.wat\n"})
	seed(0, retimeRequest{BLIF: good, Options: JobOptions{Objective: "maximize-vibes"}})
	seed(0, retimeRequest{BLIF: good, Failpoints: "server.job=panic"})
	seed(1, retimeRequest{BLIF: good, Options: JobOptions{MaxPoints: 2}})
	seed(2, batchRequest{Jobs: []batchJobSpec{{BLIF: batchBLIF(f, 0)}, {Kind: KindExplore, BLIF: batchBLIF(f, 1)}}})
	seed(2, batchRequest{Jobs: []batchJobSpec{{Kind: "retime", BLIF: good}, {Kind: "sweep", BLIF: good}}})
	seed(2, batchRequest{})
	f.Add(uint8(0), []byte(`{"blif": `))
	f.Add(uint8(2), []byte(`{"jobs": [{"blif": 7}]}`))

	// The workers are stopped once the server is up, so nothing but admission
	// runs and every tracked job stays queued: the queue length is the job
	// table's size, read in O(1). The queue is large enough never to shed.
	s := New(Config{QueueSize: 1 << 20, Workers: 1, Logf: quiet})
	if err := s.Start(); err != nil {
		f.Fatal(err)
	}
	s.sched.Close()
	s.wg.Wait()
	h := s.Handler()
	f.Fuzz(func(t *testing.T, path uint8, body []byte) {
		before := s.sched.Len()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, paths[int(path)%len(paths)], bytes.NewReader(body)))
		grew := s.sched.Len() - before
		switch rec.Code {
		case http.StatusAccepted:
			want := 1
			if int(path)%len(paths) == 2 {
				var resp struct {
					Total int `json:"total"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatalf("undecodable batch acceptance %q: %v", rec.Body.Bytes(), err)
				}
				want = resp.Total
			}
			if grew != want || want < 1 {
				t.Fatalf("accepted %d job(s), table grew by %d", want, grew)
			}
		case http.StatusBadRequest, http.StatusForbidden, http.StatusConflict,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
			if grew != 0 {
				t.Fatalf("rejection %d changed the job table by %d", rec.Code, grew)
			}
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body.Bytes())
		}
	})
}
