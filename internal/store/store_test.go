package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"mcretiming/internal/failpoint"
)

type payload struct {
	Name string `json:"name"`
	N    int    `json:"n"`
}

func openTemp(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	s := openTemp(t)
	ctx := context.Background()
	key := Key([]byte("circuit"), []byte("fp"), []byte("point"))
	want := payload{Name: "x", N: 42}
	if err := s.Save(ctx, key, want); err != nil {
		t.Fatal(err)
	}
	var got payload
	if !s.Load(ctx, key, &got) {
		t.Fatal("Load missed a just-saved entry")
	}
	if got != want {
		t.Fatalf("Load = %+v, want %+v", got, want)
	}
	st := s.Stats()
	if st.Saves != 1 || st.Hits != 1 || st.Misses != 0 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLoadAbsent(t *testing.T) {
	s := openTemp(t)
	var got payload
	if s.Load(context.Background(), Key([]byte("nope")), &got) {
		t.Fatal("Load hit an absent entry")
	}
	if st := s.Stats(); st.Misses != 1 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNilStore(t *testing.T) {
	var s *Store
	ctx := context.Background()
	if s.Load(ctx, Key([]byte("k")), &payload{}) {
		t.Fatal("nil store hit")
	}
	if err := s.Save(ctx, Key([]byte("k")), payload{}); err != nil {
		t.Fatalf("nil store Save = %v", err)
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("nil store stats = %+v", st)
	}
	if s.Dir() != "" {
		t.Fatalf("nil store dir = %q", s.Dir())
	}
}

// TestCorruptionIsAMiss: every way an on-disk entry can be damaged reads as a
// miss (and counts as corrupt), never as a wrong answer.
func TestCorruptionIsAMiss(t *testing.T) {
	cases := []struct {
		name    string
		mangle  func(t *testing.T, path string)
		corrupt bool // counted in Stats.Corrupt (unreadable files are plain misses)
	}{
		{"garbage", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("not json {"), 0o644); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"truncated", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"empty", func(t *testing.T, path string) {
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"schema-mismatch", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte(`{"schema":"mcretiming-store/v0","key":"x","payload_sha256":"","payload":{}}`), 0o644); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"checksum-flip", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Flip one byte inside the payload object, leaving JSON valid.
			i := len(data) - 10
			if data[i] == '1' {
				data[i] = '2'
			} else {
				data[i] = '1'
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"deleted", func(t *testing.T, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := openTemp(t)
			ctx := context.Background()
			key := Key([]byte("circuit"), []byte(tc.name))
			if err := s.Save(ctx, key, payload{Name: "good", N: 7}); err != nil {
				t.Fatal(err)
			}
			tc.mangle(t, s.path(key))
			var got payload
			if s.Load(ctx, key, &got) {
				t.Fatalf("Load hit a %s entry: %+v", tc.name, got)
			}
			st := s.Stats()
			if st.Misses != 1 {
				t.Fatalf("misses = %d, want 1 (stats %+v)", st.Misses, st)
			}
			if tc.corrupt && st.Corrupt != 1 {
				t.Fatalf("corrupt = %d, want 1 (stats %+v)", st.Corrupt, st)
			}
		})
	}
}

// TestEntryMovedByHand: an entry renamed to another key's path fails the
// envelope's key check — a hash-prefix collision or manual file shuffle can
// not serve the wrong payload.
func TestEntryMovedByHand(t *testing.T) {
	s := openTemp(t)
	ctx := context.Background()
	k1 := Key([]byte("one"))
	k2 := Key([]byte("two"))
	if err := s.Save(ctx, k1, payload{Name: "one"}); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(s.path(k2)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(s.path(k1), s.path(k2)); err != nil {
		t.Fatal(err)
	}
	var got payload
	if s.Load(ctx, k2, &got) {
		t.Fatalf("Load served a moved entry: %+v", got)
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("stats = %+v, want 1 corrupt", st)
	}
}

// TestKeyFraming: the length framing makes part boundaries significant, so
// concatenation-equivalent splits get distinct keys.
func TestKeyFraming(t *testing.T) {
	if Key([]byte("ab"), []byte("c")) == Key([]byte("a"), []byte("bc")) {
		t.Fatal("shifted part boundary collided")
	}
	if Key([]byte("a")) == Key([]byte("a"), nil) {
		t.Fatal("trailing empty part collided")
	}
	if Key([]byte("a")) != Key([]byte("a")) {
		t.Fatal("Key is not deterministic")
	}
}

// TestFailpoints: the store.load site turns hits into misses; the store.save
// site fails the write and leaves no entry behind.
func TestFailpoints(t *testing.T) {
	s := openTemp(t)
	key := Key([]byte("fp"))
	if err := s.Save(context.Background(), key, payload{Name: "v"}); err != nil {
		t.Fatal(err)
	}

	set, err := failpoint.ParseSet("store.load=error(internal);store.save=error(internal)")
	if err != nil {
		t.Fatal(err)
	}
	ctx, release := failpoint.With(context.Background(), set)
	defer release()

	var got payload
	if s.Load(ctx, key, &got) {
		t.Fatal("Load hit through an armed store.load failpoint")
	}
	k2 := Key([]byte("fp2"))
	if err := s.Save(ctx, k2, payload{Name: "w"}); err == nil {
		t.Fatal("Save succeeded through an armed store.save failpoint")
	}
	if _, err := os.Stat(s.path(k2)); !os.IsNotExist(err) {
		t.Fatalf("failed Save left an entry: %v", err)
	}
	release()

	// Disarmed, the original entry is intact and loads.
	if !s.Load(context.Background(), key, &got) || got.Name != "v" {
		t.Fatalf("entry damaged by failpoint run: hit=%v %+v", got.Name == "v", got)
	}
	st := s.Stats()
	if st.SaveErrors != 1 {
		t.Fatalf("save errors = %d, want 1 (stats %+v)", st.SaveErrors, st)
	}
}

// TestEncodeEnvelopeMatchesMarshal holds encodeEnvelope to the bytes
// json.Marshal writes for the whole envelope, with the payload marshaled a
// second time as a json.RawMessage, on payloads and keys that need escaping.
func TestEncodeEnvelopeMatchesMarshal(t *testing.T) {
	type inner struct {
		Text string         `json:"text"`
		List []any          `json:"list"`
		Map  map[string]any `json:"map"`
	}
	payloads := []any{
		nil,
		"",
		`<script>alert("x & y")</script>`,
		"line\u2028separator\u2029paragraph",
		"Grüße, 日本語, emoji \U0001F600, tab\t, nul\x00, invalid \xff",
		payload{Name: "a<b>&c", N: -7},
		inner{
			Text: "nested <&>",
			List: []any{1.5, "two\u2028", []any{nil, true, map[string]any{"k<": "v>"}}},
			Map:  map[string]any{"z": 1, "a": []int{3, 2, 1}, "é": inner{Text: "&"}},
		},
		json.RawMessage(`{ "spaced" : [ 1 , 2 ] , "html" : "<>" }`),
	}
	keys := []string{"abc", "0123456789abcdef", `k"<&>` + "\u2028é"}
	for _, key := range keys {
		for i, v := range payloads {
			got, err := encodeEnvelope(key, v)
			if err != nil {
				t.Fatalf("payload %d: %v", i, err)
			}
			raw, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(raw)
			want, err := json.Marshal(struct {
				Schema        string          `json:"schema"`
				Key           string          `json:"key"`
				PayloadSHA256 string          `json:"payload_sha256"`
				Payload       json.RawMessage `json:"payload"`
			}{Schema, key, hex.EncodeToString(sum[:]), raw})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("key %q payload %d:\n got %s\nwant %s", key, i, got, want)
			}
			if _, err := decodeEnvelope(key, got); err != nil {
				t.Errorf("key %q payload %d: decoding: %v", key, i, err)
			}
		}
	}
}
