package rowcodec

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestScanShapes pins which lines take the fast path. Every rejected
// line must be left to encoding/json (FuzzRowDecode in internal/serve
// checks the accepted ones against it).
func TestScanShapes(t *testing.T) {
	keys := NewKeys([]string{"mobile.rtt", "mobile.loss"})
	cases := []struct {
		line      string
		ok        bool
		id        string
		explain   bool
		rtt, loss float64 // NaN: absent
	}{
		{`{"id":"a","features":{"mobile.rtt":150,"mobile.loss":8}}`, true, "a", false, 150, 8},
		{`{"features":{"mobile.loss":-0.5e1},"explain":true,"id":"b"}`, true, "b", true, math.NaN(), -5},
		{" {\t\"id\" : \"c\" , \"features\" : { } } ", true, "c", false, math.NaN(), math.NaN()},
		{`{}`, true, "", false, math.NaN(), math.NaN()},
		{`{"id":"d","id":"e","features":{"mobile.rtt":1},"features":{"mobile.rtt":2,"other":1e300}}`, true, "e", false, 2, math.NaN()},
		{`{"id":"f","explain":true,"explain":false}`, true, "f", false, math.NaN(), math.NaN()},
		{`{"id":"g","features":{"big":123456789012345678901234567890e270}}`, true, "g", false, math.NaN(), math.NaN()},
		{`{"ID":"a"}`, false, "", false, 0, 0},
		{`{"id":"a","extra":1}`, false, "", false, 0, 0},
		{`{"id":"café"}`, false, "", false, 0, 0},
		{"{\"id\":\"caf\xc3\xa9\"}", false, "", false, 0, 0},
		{`{"features":{"mobile.rtt":1}}`, true, "", false, 1, math.NaN()},
		{`{"id":null}`, false, "", false, 0, 0},
		{`{"features":{"mobile.rtt":null}}`, false, "", false, 0, 0},
		{`{"features":{"mobile.rtt":"1"}}`, false, "", false, 0, 0},
		{`{"features":{"other":1e999}}`, false, "", false, 0, 0},
		{`{"features":{"other":1.8e308}}`, false, "", false, 0, 0},
		{`{"features":{"other":01}}`, false, "", false, 0, 0},
		{`{"features":{"other":1.}}`, false, "", false, 0, 0},
		{`{"features":{"other":.5}}`, false, "", false, 0, 0},
		{`{"features":{"other":+1}}`, false, "", false, 0, 0},
		{`{"features":{"a":1,}}`, false, "", false, 0, 0},
		{`{"id":"a"} {}`, false, "", false, 0, 0},
		{`{"id":"a"`, false, "", false, 0, 0},
		{`[]`, false, "", false, 0, 0},
		{``, false, "", false, 0, 0},
	}
	for _, c := range cases {
		vals := make([]float64, keys.Len())
		id, explain, ok := Scan([]byte(c.line), keys, vals)
		if ok != c.ok {
			t.Errorf("%s: ok=%v, want %v", c.line, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if id != c.id || explain != c.explain {
			t.Errorf("%s: id=%q explain=%v, want %q %v", c.line, id, explain, c.id, c.explain)
		}
		for i, want := range []float64{c.rtt, c.loss} {
			if got := vals[i]; got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Errorf("%s: %s=%v, want %v", c.line, keys.Names()[i], got, want)
			}
		}
	}
}

func TestProject(t *testing.T) {
	keys := NewKeys([]string{"a", "b"})
	vals := []float64{7, 7}
	keys.Project(map[string]float64{"b": 2, "c": 3}, vals)
	if !math.IsNaN(vals[0]) || vals[1] != 2 {
		t.Fatalf("projected %v, want [NaN 2]", vals)
	}
}

// TestBodyRecycling: a body returns its buffer to the pool only after
// the caller released it and every reader was read to the end and
// closed; an early close keeps it out for good.
func TestBodyRecycling(t *testing.T) {
	buf := GetBuf()
	*buf = append(*buf, "row\n"...)
	b := NewBody(buf)
	r1, r2 := b.Reader(), b.Reader()
	for _, r := range []io.ReadCloser{r1, r2} {
		if got, _ := io.ReadAll(r); string(got) != "row\n" {
			t.Fatalf("read %q", got)
		}
		r.Close()
	}
	b.Release()
	if n := b.refs.Load(); n != 0 {
		t.Fatalf("%d references left after full reads, closes and release", n)
	}

	early := NewBody(GetBuf())
	r := early.Reader()
	r.Close()
	early.Release()
	if early.refs.Load() == 0 {
		t.Fatal("an early-closed body's buffer was recycled")
	}
}

// TestBodyOverHTTP sends a body through a real transport: it arrives
// whole and its buffer is released.
func TestBodyOverHTTP(t *testing.T) {
	payload := bytes.Repeat([]byte(`{"id":"x","features":{}}`+"\n"), 500)
	read := make(chan []byte, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, _ := io.ReadAll(r.Body)
		read <- got
	}))
	defer srv.Close()
	buf := GetBuf()
	*buf = append(*buf, payload...)
	b := NewBody(buf)
	req, err := http.NewRequest(http.MethodPost, srv.URL, b.Reader())
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = int64(b.Len())
	req.GetBody = func() (io.ReadCloser, error) { return b.Reader(), nil }
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	b.Release()
	if got := <-read; !bytes.Equal(got, payload) {
		t.Fatalf("server read %d bytes, want %d", len(got), len(payload))
	}
	// The transport closes the body from its write loop, which may run
	// after Do has returned.
	for deadline := time.Now().Add(5 * time.Second); b.refs.Load() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d references left after the round trip", b.refs.Load())
		}
	}
}
