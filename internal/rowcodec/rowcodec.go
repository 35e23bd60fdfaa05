// Package rowcodec owns the /diagnose request-row format shared by the
// serving tier (internal/serve) and the router tier (internal/route):
// one JSON object per NDJSON line,
//
//	{"id":"s1","features":{"mobile.rtt":120,...},"explain":true}
//
// Its Scan decodes a line in a single pass. It validates the whole
// line, extracts "id" and "explain", and parses only the feature values
// a projection key set asks for, skipping every other feature without
// allocating. A probe row carries every metric from up to three
// vantage points (358 keys with all three) while a model reads a
// dozen, so decoding only what is read is most of the online path's
// cost.
//
// Scan accepts only lines it can prove encoding/json decodes into the
// same id, explain flag and feature values without error. Everything
// else — unknown or case-variant top-level keys, escaped or non-ASCII
// keys and IDs, null, non-number feature values, numbers outside the
// float64 range, syntax errors — is reported as not scanned, and the
// caller decodes the line with encoding/json instead. encoding/json is
// therefore the only source of error text, and both tiers answer every
// line exactly as encoding/json would. FuzzRowDecode pins the contract
// differentially.
//
// The package also owns the line framing (MaxLine) and the pooled
// buffers both tiers read and forward rows with.
package rowcodec

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
)

// MaxLine bounds one NDJSON line in either direction (1 MiB).
const MaxLine = 1 << 20

// scanBuf is the initial line-scanner buffer; longer lines grow it up
// to MaxLine.
const scanBuf = 64 * 1024

// Keys is a projection key set: the feature names a scan parses, each
// with its slot in the caller's value slice. Build it once per model
// snapshot; it is immutable and safe for concurrent use. A nil *Keys is
// the empty set.
type Keys struct {
	names []string
	slot  map[string]int
}

// NewKeys builds the key set whose slot i is names[i]. Names must be
// distinct.
func NewKeys(names []string) *Keys {
	k := &Keys{names: append([]string(nil), names...), slot: make(map[string]int, len(names))}
	for i, n := range names {
		k.slot[n] = i
	}
	return k
}

// Len returns the number of slots.
func (k *Keys) Len() int {
	if k == nil {
		return 0
	}
	return len(k.names)
}

// Names returns the slot names in slot order (do not mutate).
func (k *Keys) Names() []string {
	if k == nil {
		return nil
	}
	return k.names
}

// lookup returns the slot of a raw (unescaped ASCII) key; the empty
// set holds none.
func (k *Keys) lookup(key []byte) (int, bool) {
	if k == nil {
		return 0, false
	}
	i, ok := k.slot[string(key)]
	return i, ok
}

// Project fills vals[:k.Len()] from a decoded feature map: the value
// where the map has the key, NaN where it does not. It is how rows that
// did not come through Scan (Go API callers, lines encoding/json
// decoded) reach the same slot layout.
func (k *Keys) Project(fv map[string]float64, vals []float64) {
	for i, n := range k.Names() {
		v, ok := fv[n]
		if !ok {
			v = math.NaN()
		}
		vals[i] = v
	}
}

// Scan decodes one request line on the fast path. On success it
// returns the row's id and explain flag and has set vals[i], for every
// slot of k, to the feature's value or to NaN when the row does not
// carry it (a JSON number is never NaN, so NaN marks absence). ok is
// false when the line is not one Scan can prove encoding/json decodes
// identically; vals is then unspecified and the caller must decode the
// line with encoding/json. Whether a line scans does not depend on k.
func Scan(line []byte, k *Keys, vals []float64) (id string, explain bool, ok bool) {
	nan := math.NaN()
	for i := range vals[:k.Len()] {
		vals[i] = nan
	}
	s := scanner{b: line}
	var idb []byte
	hasID := false
	s.ws()
	if !s.eat('{') {
		return "", false, false
	}
	s.ws()
	if !s.eat('}') {
		for {
			key, ok := s.str()
			if !ok {
				return "", false, false
			}
			s.ws()
			if !s.eat(':') {
				return "", false, false
			}
			s.ws()
			switch string(key) {
			case "id":
				if idb, ok = s.str(); !ok {
					return "", false, false
				}
				hasID = true
			case "features":
				if !s.features(k, vals) {
					return "", false, false
				}
			case "explain":
				switch {
				case s.lit("true"):
					explain = true
				case s.lit("false"):
					explain = false
				default:
					return "", false, false
				}
			default:
				// Unknown keys are ignored by encoding/json, and other
				// spellings of these three match case-insensitively: the
				// reference decoder settles both.
				return "", false, false
			}
			s.ws()
			if s.eat(',') {
				s.ws()
				continue
			}
			if s.eat('}') {
				break
			}
			return "", false, false
		}
	}
	s.ws()
	if s.i != len(s.b) {
		return "", false, false
	}
	if hasID {
		id = string(idb)
	}
	return id, explain, true
}

// scanner is a cursor over one line.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

func (s *scanner) eat(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

func (s *scanner) lit(w string) bool {
	if len(s.b)-s.i >= len(w) && string(s.b[s.i:s.i+len(w)]) == w {
		s.i += len(w)
		return true
	}
	return false
}

// plain marks the bytes a fast-path string may hold: printable ASCII
// other than the quote and the backslash. A string with an escape,
// a control byte or a non-ASCII byte goes to encoding/json, which
// unescapes, rejects or replaces it.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str scans a plain string and returns its contents.
func (s *scanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	rest := s.b[s.i:]
	n := bytes.IndexByte(rest, '"')
	if n < 0 {
		return nil, false
	}
	str := rest[:n]
	for _, c := range str {
		if !plain[c] {
			return nil, false
		}
	}
	s.i += n + 1
	return str, true
}

// features scans the features object, parsing the values of keys in k
// into vals and range-checking the rest.
func (s *scanner) features(k *Keys, vals []float64) bool {
	if !s.eat('{') {
		return false
	}
	s.ws()
	if s.eat('}') {
		return true
	}
	for {
		key, ok := s.str()
		if !ok {
			return false
		}
		s.ws()
		if !s.eat(':') {
			return false
		}
		s.ws()
		start := s.i
		intDigits, exp, ok := s.number()
		if !ok {
			return false
		}
		tok := s.b[start:s.i]
		if slot, hit := k.lookup(key); hit {
			v, err := strconv.ParseFloat(string(tok), 64)
			if err != nil {
				return false
			}
			vals[slot] = v
		} else if intDigits+exp > 308 {
			// Possibly beyond float64: encoding/json rejects those, so
			// settle it exactly. Every smaller magnitude is in range.
			if _, err := strconv.ParseFloat(string(tok), 64); err != nil {
				return false
			}
		}
		s.ws()
		if s.eat(',') {
			s.ws()
			continue
		}
		return s.eat('}')
	}
}

// number scans one JSON number and returns the count of its integer
// digits and its exponent (clamped), so that the value is below
// 10^(intDigits+exp).
func (s *scanner) number() (intDigits, exp int, ok bool) {
	b, i := s.b, s.i
	digits := func() int {
		start := i
		for i < len(b) && isDigit(b[i]) {
			i++
		}
		return i - start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
		intDigits = 1
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		intDigits = digits()
	default:
		return 0, 0, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if digits() == 0 {
			return 0, 0, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		neg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			neg = b[i] == '-'
			i++
		}
		start := i
		if digits() == 0 {
			return 0, 0, false
		}
		for _, c := range b[start:i] {
			if exp < 100000 {
				exp = exp*10 + int(c-'0')
			}
		}
		if neg {
			exp = -exp
		}
	}
	s.i = i
	return intDigits, exp, true
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// LineError renders a line that failed to decode, numbered as the
// client sent it (blank lines count), as both tiers report it.
func LineError(lineno int, err error) string {
	return fmt.Sprintf("line %d: %v", lineno, err)
}

// bufs pools the buffers rows are kept and forwarded in: the replica's
// retained-line arena and the router's sub-batch bodies. Line-scanner
// buffers have a pool of their own: sharing one would hand the
// scanners arena-sized buffers and leave the arenas to regrow.
var (
	bufs     = sync.Pool{New: func() any { b := make([]byte, 0, scanBuf); return &b }}
	scanBufs = sync.Pool{New: func() any { b := make([]byte, scanBuf); return &b }}
)

// maxPooled keeps one outsized request from pinning its buffer.
const maxPooled = 4 << 20

// GetBuf returns an empty pooled buffer.
func GetBuf() *[]byte {
	b := bufs.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutBuf returns a buffer to the pool. The caller must hold no slice of
// it afterwards.
func PutBuf(b *[]byte) {
	if cap(*b) <= maxPooled {
		bufs.Put(b)
	}
}

// NewScanner returns a line scanner over r whose initial 64 KiB buffer
// comes from the pool; a longer line makes the scanner allocate a
// larger one of its own, up to MaxLine. Call release once the scanner
// and every line it returned are no longer used.
func NewScanner(r io.Reader) (sc *bufio.Scanner, release func()) {
	b := scanBufs.Get().(*[]byte)
	sc = bufio.NewScanner(r)
	sc.Buffer(*b, MaxLine)
	return sc, func() { scanBufs.Put(b) }
}

// Body is a pooled buffer sent as an HTTP request body, possibly more
// than once: the transport may ask for a fresh copy (Request.GetBody)
// to retry a request on a connection that died before anything was
// written. The buffer goes back to the pool once the caller has
// released it and every body read from it was read to the end and
// closed. A body closed early, as on an aborted request, keeps the
// buffer out of the pool for good — the transport may still be reading
// it — and leaves it to the garbage collector.
type Body struct {
	buf  *[]byte
	refs atomic.Int32
}

// NewBody takes ownership of a buffer from GetBuf. The caller holds
// one reference, dropped by Release.
func NewBody(buf *[]byte) *Body {
	b := &Body{buf: buf}
	b.refs.Store(1)
	return b
}

// Len returns the body's size in bytes.
func (b *Body) Len() int { return len(*b.buf) }

// Reader returns a new reader over the whole body; it holds a
// reference until it is read to the end and closed.
func (b *Body) Reader() io.ReadCloser {
	b.refs.Add(1)
	r := &bodyReader{b: b}
	r.r.Reset(*b.buf)
	return r
}

// Release drops the caller's reference. Call it once no further
// Reader will be taken.
func (b *Body) Release() { b.unref() }

func (b *Body) unref() {
	if b.refs.Add(-1) == 0 {
		PutBuf(b.buf)
	}
}

type bodyReader struct {
	r      bytes.Reader
	b      *Body
	eof    atomic.Bool
	closed atomic.Bool
}

func (r *bodyReader) Read(p []byte) (int, error) {
	n, err := r.r.Read(p)
	if err == io.EOF {
		r.eof.Store(true)
	}
	return n, err
}

func (r *bodyReader) Close() error {
	if r.eof.Load() && !r.closed.Swap(true) {
		r.b.unref()
	}
	return nil
}
