package trace

import (
	"io"
	"math"
	"strconv"
	"unicode/utf8"
)

// Both writers stream Chrome trace-event JSON through one jsonWriter:
// each event is appended to a reused buffer that is flushed to the
// destination in chunks, so rendering allocates a constant amount however
// long the trace is. The bytes match what encoding/json's Encoder produced
// for the old reflection-built event structs — field order, HTML-safe
// string escaping, float formatting, sorted otherData keys and the trailing
// newline — which the reference encoder in reference_test.go checks under
// FuzzLifecycleEncoding.

// flushAt is the buffered size at which jsonWriter hands bytes to the
// destination.
const flushAt = 64 << 10

// jsonWriter appends one trace file's JSON into buf and flushes it to w in
// chunks. After a failed write it keeps rendering into buf but writes
// nothing more; close reports the first error.
type jsonWriter struct {
	w      io.Writer
	buf    []byte
	events int // events written so far, for the array separators
	err    error
}

func newJSONWriter(w io.Writer) *jsonWriter {
	jw := &jsonWriter{w: w, buf: make([]byte, 0, flushAt+1024)}
	jw.buf = append(jw.buf, `{"traceEvents":[`...)
	return jw
}

func (jw *jsonWriter) flush() {
	if jw.err == nil && len(jw.buf) > 0 {
		_, jw.err = jw.w.Write(jw.buf)
	}
	jw.buf = jw.buf[:0]
}

// close ends the event array, writes the file trailer with its otherData
// keys in sorted order ("format" < "source"), and flushes.
func (jw *jsonWriter) close(source, format string) error {
	b := append(jw.buf, `],"displayTimeUnit":"ms","otherData":{"format":`...)
	b = appendString(b, format)
	b = append(b, `,"source":`...)
	b = appendString(b, source)
	jw.buf = append(b, "}}\n"...)
	jw.flush()
	return jw.err
}

// begin opens an event with its fixed fields. ts and dur are nanosecond
// counts rendered as microseconds. The caller appends any "s" and "args"
// fields to jw.buf and then calls end.
func begin[S []byte | string](jw *jsonWriter, name S, ph string, ts, dur int64, pid, tid int) {
	b := jw.buf
	if jw.events > 0 {
		b = append(b, ',')
	}
	jw.events++
	b = append(b, `{"name":`...)
	b = appendString(b, name)
	b = append(b, `,"ph":"`...)
	b = append(b, ph...)
	b = append(b, `","ts":`...)
	b = appendMicros(b, ts)
	b = append(b, `,"dur":`...)
	b = appendMicros(b, dur)
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	jw.buf = strconv.AppendInt(b, int64(tid), 10)
}

// end closes the event opened by begin and flushes a full buffer.
func (jw *jsonWriter) end() {
	jw.buf = append(jw.buf, '}')
	if len(jw.buf) >= flushAt {
		jw.flush()
	}
}

// meta writes an "M" metadata event labeling a process or thread.
func meta[S []byte | string](jw *jsonWriter, kind string, pid, tid int, label S) {
	begin(jw, kind, "M", 0, 0, pid, tid)
	jw.buf = append(appendString(append(jw.buf, `,"args":{"name":`...), label), '}')
	jw.end()
}

// exactMicros bounds the nanosecond counts appendMicros prints itself.
// Below it float64(ns) is exact (1e15 < 2^53) and ns/1e3 has at most 15
// significant digits. Every decimal of at most 15 significant digits is
// the unique such decimal that parses to its nearest float64, so it is the
// shortest round-tripping form strconv would print for the correctly
// rounded quotient float64(ns)/1e3. Its magnitude is 0 or in
// [1e-3, 1e12), where encoding/json picks the 'f' format.
const exactMicros = 1e15

// appendMicros appends ns nanoseconds as microseconds, byte-identical to
// encoding/json's rendering of float64(ns)/1e3.
func appendMicros(b []byte, ns int64) []byte {
	if ns <= -exactMicros || ns >= exactMicros {
		return appendFloat(b, float64(ns)/1e3)
	}
	if ns < 0 {
		b = append(b, '-')
		ns = -ns
	}
	b = strconv.AppendInt(b, ns/1000, 10)
	frac := ns % 1000
	if frac == 0 {
		return b
	}
	d := [4]byte{'.', byte('0' + frac/100), byte('0' + frac/10%10), byte('0' + frac%10)}
	n := len(d)
	for d[n-1] == '0' {
		n--
	}
	return append(b, d[:n]...)
}

// appendFloat appends a finite f the way encoding/json does: shortest
// round-trip digits in 'f' format, or 'e' format below 1e-6 and from 1e21
// up, with a single-digit negative exponent written e-7, not e-07.
func appendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// htmlSafe marks the ASCII bytes a JSON string may carry unescaped under
// encoding/json's default HTML-safe escaping.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendString appends s as a quoted JSON string with encoding/json's
// HTML-safe escaping: quote and backslash, the short control escapes,
// \u00XX for other control bytes and for <, > and &, the replacement
// character for each invalid UTF-8 byte, and \u2028 and \u2029 escaped.
func appendString[S []byte | string](b []byte, s S) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		n := min(len(s)-i, utf8.UTFMax)
		r, size := utf8.DecodeRuneInString(string(s[i : i+n]))
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
