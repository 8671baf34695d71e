package gateway

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"aegaeon/internal/assemble"
	"aegaeon/internal/core"
	"aegaeon/internal/decision"
	"aegaeon/internal/sim"
)

type completionChunk struct {
	ID      string             `json:"id"`
	Object  string             `json:"object"`
	Model   string             `json:"model"`
	Choices []completionChoice `json:"choices"`
	// TokenIndex orders the stream (-1 on the terminal chunk).
	TokenIndex int `json:"token_index"`
	// VirtualTimeS is the virtual emission time of the token.
	VirtualTimeS float64 `json:"virtual_time_s"`
}

// referenceFrame is a streamed chunk as the reflection-based encoder writes
// it: "data: ", the json.Encoder line, and the blank line ending the event.
func referenceFrame(t testing.TB, c completionChunk) []byte {
	t.Helper()
	var b bytes.Buffer
	b.WriteString("data: ")
	if err := json.NewEncoder(&b).Encode(c); err != nil {
		t.Fatal(err)
	}
	b.WriteString("\n")
	return b.Bytes()
}

func referenceToken(t testing.TB, id, model string, i int, at sim.Time) []byte {
	return referenceFrame(t, completionChunk{
		ID: id, Object: "text_completion.chunk", Model: model,
		Choices:    []completionChoice{{Index: 0, Text: fmt.Sprintf(" token%d", i)}},
		TokenIndex: i, VirtualTimeS: time.Duration(at).Seconds(),
	})
}

// awkwardStrings need every escaping rule encoding/json applies: quote and
// backslash, control characters with and without short forms, the
// HTML-sensitive <, > and &, U+2028/U+2029, and invalid UTF-8.
var awkwardStrings = []string{
	"", "cmpl-1", "Qwen-7B-ft000", `a"b\c`, "tab\there\nnew\rline",
	"\b\f\x00\x01\x1f\x7f", "<script>&amp;</script>", "line\u2028para\u2029",
	"ünïcødé 日本語 🚀", "bad\xffutf8\xc3", "\xe2\x80", "end\\",
}

// randomString mixes ASCII, control bytes, multi-byte runes and stray bytes.
func randomString(rng *rand.Rand) string {
	pieces := []string{"a", "Z", "9", "-", " ", `"`, `\`, "<", ">", "&", "\x00", "\x1f",
		"\n", "\t", "\x7f", "é", "日", "\u2028", "\u2029", "\xff", "\xc3", "🚀"}
	var b strings.Builder
	for n := rng.Intn(24); n > 0; n-- {
		b.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return b.String()
}

// randomVirtualTime covers zero, the 'e' range below 1e-6 s, the boundary,
// ordinary stream times, and the largest sim.Time values.
func randomVirtualTime(rng *rand.Rand) sim.Time {
	switch rng.Intn(5) {
	case 0:
		return 0
	case 1:
		return sim.Time(rng.Int63n(1000)) // under 1 µs
	case 2:
		return sim.Time(1000 + rng.Int63n(2))
	case 3:
		return sim.Time(rng.Int63n(int64(10 * time.Hour)))
	default:
		return sim.Time(rng.Int63())
	}
}

// TestSSEFramesMatchJSONEncoder is the encoder's property test: over random
// ids, models, token indices and virtual times, every frame is byte for
// byte what json.Encoder writes for the same chunk.
func TestSSEFramesMatchJSONEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 20000; n++ {
		id, model := awkwardStrings[rng.Intn(len(awkwardStrings))], randomString(rng)
		if n%2 == 1 {
			id, model = randomString(rng), awkwardStrings[rng.Intn(len(awkwardStrings))]
		}
		f := newSSEFrames(id, model)
		for k := 0; k < 3; k++ {
			i := rng.Intn(1 << uint(rng.Intn(31)))
			at := randomVirtualTime(rng)
			if got, want := f.token(i, at), referenceToken(t, id, model, i, at); !bytes.Equal(got, want) {
				t.Fatalf("token %d at %d (id %q, model %q):\n got %q\nwant %q", i, at, id, model, got, want)
			}
		}
		want := append(referenceFrame(t, completionChunk{
			ID: id, Object: "text_completion.chunk", Model: model,
			Choices:    []completionChoice{{Index: 0, FinishReason: ptr("stop")}},
			TokenIndex: -1,
		}), "data: [DONE]\n\n"...)
		if got := f.stop(); !bytes.Equal(got, want) {
			t.Fatalf("stop (id %q, model %q):\n got %q\nwant %q", id, model, got, want)
		}
		msg := randomString(rng)
		ref, err := json.Marshal(map[string]string{"error": msg})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := f.errorFrame(msg), append(append([]byte("data: "), ref...), "\n\n"...); !bytes.Equal(got, want) {
			t.Fatalf("error %q:\n got %q\nwant %q", msg, got, want)
		}
	}
}

func ptr(s string) *string { return &s }

// TestAppendJSONFloat checks the float rule on its own over every magnitude
// a float64 has, both signs, and the cut-offs at 1e-6 and 1e21.
func TestAppendJSONFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vals := []float64{0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), 1e21,
		math.Nextafter(1e21, 0), 1e-7, 1e-10, 1e-100, 5e-324, math.MaxFloat64, 1, 0.1, 123.456}
	for n := 0; n < 20000; n++ {
		v := math.Float64frombits(rng.Uint64())
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		vals = append(vals, v, math.Ldexp(rng.Float64(), rng.Intn(200)-100))
	}
	for _, v := range vals {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("%v: got %s, want %s", v, got, want)
		}
	}
}

// TestSSEChunkZeroAllocs gates the per-token path: once a stream's buffer
// has grown to its largest frame, encoding a token allocates nothing.
func TestSSEChunkZeroAllocs(t *testing.T) {
	f := newSSEFrames("cmpl-123456", "Qwen-7B-ft000")
	f.token(math.MaxInt32, sim.Time(math.MaxInt64))
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		i++
		sinkFrame = f.token(i, sim.Time(i)*7919*time.Microsecond)
	}); n != 0 {
		t.Fatalf("token frame: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { sinkFrame = f.stop() }); n != 0 {
		t.Fatalf("stop frame: %v allocs, want 0", n)
	}
}

// streamGolden is the sha256 of the four streamed responses that
// TestStreamGolden requests.
const streamGolden = "a43e0125e0941745797f9fd3fae39da9fe0118e89f8c2fc7ef5149e4dd5599c2"

// TestStreamGolden pins every byte of a fixed-seed streamed response through
// gateway.Handler. The driver runs un-paced from virtual time zero, so token
// times depend only on the seed, not on the wall clock.
func TestStreamGolden(t *testing.T) {
	gw, names := newGateway(t, assemble.Spec{}, testCluster{accelerate: true}, Options{Speedup: 1})
	defer gw.Shutdown(context.Background())
	h := gw.Handler()
	sum := sha256.New()
	for i, m := range names {
		w := postCompletion(h, fmt.Sprintf(`{"model":%q,"input_tokens":%d,"max_tokens":%d,"stream":true}`,
			m, 100*(i+1), 5+3*i))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", m, w.Code, w.Body.String())
		}
		sum.Write(w.Body.Bytes())
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != streamGolden {
		t.Errorf("stream digest %s, want %s", got, streamGolden)
	}
}

// TestStreamErrorFramesAreJSON feeds error text with control characters
// and HTML-sensitive bytes through a stream's error path, a mid-flight
// failure's FailReason, and checks that every data line is JSON carrying the
// exact message. (A submission error is answered before the stream begins.)
func TestStreamErrorFramesAreJSON(t *testing.T) {
	const reason = "partition\x01lost <all> \"replicas\"\u2028\x7f"
	cases := []struct {
		name string
		fill func(tokens chan tokenEvent, done chan *core.Request)
		want string
	}{
		{"failed", func(tokens chan tokenEvent, done chan *core.Request) {
			tokens <- tokenEvent{0, time.Millisecond}
			done <- &core.Request{Outcome: decision.OutcomeFailed, FailReason: reason}
		}, "request failed: " + reason},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := &Gateway{}
			f := &feed{id: "cmpl-1", tokens: make(chan tokenEvent, 4), done: make(chan *core.Request, 1)}
			tc.fill(f.tokens, f.done)
			w := httptest.NewRecorder()
			g.streamCompletion(w, httptest.NewRequest(http.MethodPost, "/v1/completions", nil), "m", f)
			var gotErr string
			sc := bufio.NewScanner(w.Body)
			for sc.Scan() {
				payload, ok := strings.CutPrefix(sc.Text(), "data: ")
				if !ok {
					continue
				}
				var v struct {
					Error *string `json:"error"`
				}
				if err := json.Unmarshal([]byte(payload), &v); err != nil {
					t.Fatalf("data line %q is not JSON: %v", payload, err)
				}
				if v.Error != nil {
					gotErr = *v.Error
				}
			}
			if gotErr != tc.want {
				t.Fatalf("error message %q, want %q", gotErr, tc.want)
			}
		})
	}
}

// flushRecorder is a ResponseRecorder that counts its flushes and, when
// flushed is not nil, reports each one there.
type flushRecorder struct {
	*httptest.ResponseRecorder
	flushes int
	flushed chan struct{}
}

func (w *flushRecorder) Flush() {
	w.ResponseRecorder.Flush()
	w.flushes++
	if w.flushed != nil {
		w.flushed <- struct{}{}
	}
}

// TestStreamCoalescesBufferedTokens streams a feed whose 64 tokens are all
// buffered before the handler looks: they leave in one flush between the
// headers' and the stop frame's, and the body is the frames sseFrames
// builds one token at a time.
func TestStreamCoalescesBufferedTokens(t *testing.T) {
	const n = 64
	f := &feed{id: "cmpl-1", tokens: make(chan tokenEvent, n), done: make(chan *core.Request, 1)}
	want := newSSEFrames(f.id, "m")
	var body []byte
	for i := 0; i < n; i++ {
		at := sim.Time(i+1) * time.Millisecond
		f.tokens <- tokenEvent{i, at}
		body = append(body, want.token(i, at)...)
	}
	body = append(body, want.stop()...)
	f.done <- &core.Request{}
	w := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	(&Gateway{}).streamCompletion(w, httptest.NewRequest(http.MethodPost, "/v1/completions", nil), "m", f)
	if w.flushes > 3 {
		t.Errorf("%d flushes for %d buffered tokens, want at most 3 (headers, tokens, stop)", w.flushes, n)
	}
	if !bytes.Equal(w.Body.Bytes(), body) {
		t.Errorf("body:\n got %q\nwant %q", w.Body.Bytes(), body)
	}
}

// TestStreamFlushesEachLoneToken sends each token only after the previous
// flush was seen, so a handler that holds a token for a later one never
// gets it: every token must be on the wire, flushed, before the next is
// sent.
func TestStreamFlushesEachLoneToken(t *testing.T) {
	const n = 8
	f := &feed{id: "cmpl-1", tokens: make(chan tokenEvent, n), done: make(chan *core.Request, 1)}
	w := &flushRecorder{ResponseRecorder: httptest.NewRecorder(), flushed: make(chan struct{})}
	go (&Gateway{}).streamCompletion(w, httptest.NewRequest(http.MethodPost, "/v1/completions", nil), "m", f)
	awaitFlush := func(what string) {
		t.Helper()
		select {
		case <-w.flushed:
		case <-time.After(10 * time.Second):
			t.Fatalf("no flush after %s", what)
		}
	}
	awaitFlush("the headers")
	want := newSSEFrames(f.id, "m")
	var body []byte
	for i := 0; i < n; i++ {
		at := sim.Time(i+1) * time.Millisecond
		f.tokens <- tokenEvent{i, at}
		awaitFlush(fmt.Sprintf("token %d", i))
		if body = append(body, want.token(i, at)...); !bytes.Equal(w.Body.Bytes(), body) {
			t.Fatalf("after token %d, body:\n got %q\nwant %q", i, w.Body.Bytes(), body)
		}
	}
	f.done <- &core.Request{}
	awaitFlush("done")
	if body = append(body, want.stop()...); !bytes.Equal(w.Body.Bytes(), body) {
		t.Fatalf("final body:\n got %q\nwant %q", w.Body.Bytes(), body)
	}
}

// FuzzCompletionRequest posts arbitrary bodies to /v1/completions. Whatever
// the body, the handler must not panic or answer 500, a non-200 answer must
// be a JSON error, and a 200 must be valid JSON or SSE whose every data
// line is JSON. At 50000x even a request at the max_tokens cap finishes in
// milliseconds.
func FuzzCompletionRequest(f *testing.F) {
	gw, names := newTestGateway(f, Options{Speedup: 50000})
	defer gw.Shutdown(context.Background())
	h := gw.Handler()
	m := names[0]
	for _, body := range []string{
		fmt.Sprintf(`{"model":%q,"max_tokens":2,"stream":true}`, m),
		fmt.Sprintf(`{"model":%q,"prompt":"hello <world>","max_tokens":3}`, m),
		fmt.Sprintf(`{"model":%q,"input_tokens":16384,"max_tokens":1,"stream":true}`, m),
		fmt.Sprintf(`{"model":%q,"input_tokens":16385}`, m),
		fmt.Sprintf(`{"model":%q,"max_tokens":-1}`, m),
		fmt.Sprintf(`{"model":%q,"max_tokens":1e30}`, m),
		fmt.Sprintf(`{"model":%q,"priority":"urgent"}`, m),
		fmt.Sprintf(`{"model":%q,"priority":"high","session_id":"s\u0001","turn":2,"stream":true}`, m),
		`{"model":"no-such-model"}`, `{"model":"<\u2028>"}`, `{}`, `null`, `[]`, ``, `{"model":`, "\xff\xfe",
		fmt.Sprintf(`{"model":%q,"stream":"yes"}`, m),
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		req := httptest.NewRequest(http.MethodPost, "/v1/completions", bytes.NewReader(body)).WithContext(ctx)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if ctx.Err() != nil {
			t.Fatalf("body %q: request did not finish in 10s", body)
		}
		switch {
		case w.Code == http.StatusInternalServerError:
			t.Fatalf("body %q: 500: %s", body, w.Body.String())
		case w.Code != http.StatusOK:
			if ct := w.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("body %q: status %d with Content-Type %q", body, w.Code, ct)
			}
			if !json.Valid(w.Body.Bytes()) {
				t.Fatalf("body %q: status %d with non-JSON body %q", body, w.Code, w.Body.String())
			}
		case w.Header().Get("Content-Type") == "text/event-stream":
			if !strings.HasSuffix(w.Body.String(), "data: [DONE]\n\n") {
				t.Fatalf("body %q: stream does not end in [DONE]: %q", body, w.Body.String())
			}
			for _, line := range strings.Split(w.Body.String(), "\n") {
				payload, ok := strings.CutPrefix(line, "data: ")
				if ok && payload != "[DONE]" && !json.Valid([]byte(payload)) {
					t.Fatalf("body %q: data line %q is not JSON", body, payload)
				}
			}
		default:
			if !json.Valid(w.Body.Bytes()) {
				t.Fatalf("body %q: 200 with non-JSON body %q", body, w.Body.String())
			}
		}
	})
}
