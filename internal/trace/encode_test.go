package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"time"

	"olympian/internal/core"
	"olympian/internal/obs"
	"olympian/internal/sim"
	"olympian/internal/telemetry"
)

// checkReference renders tr and burns with the streaming writer and with
// the reference encoder and fails unless both return an error, with the
// streaming writer having written nothing, or both write the same bytes.
// It also renders the spans as quantum records through WriteChromeTrace,
// labelling each device with the name of its first span.
func checkReference(t *testing.T, tr *obs.Trace, burns map[string][]float64, at func(int) int64) {
	t.Helper()
	var got, want bytes.Buffer
	gotErr := writeLifecycle(&got, tr, burns, at)
	wantErr := refWriteLifecycleCounters(&want, tr, burns, at)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("lifecycle: error %v, reference error %v", gotErr, wantErr)
	}
	if gotErr != nil && got.Len() > 0 {
		t.Fatalf("lifecycle: wrote %d bytes before failing with %v", got.Len(), gotErr)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("lifecycle differs from reference\n got %s\nwant %s", got.Bytes(), want.Bytes())
	}

	records := make([]core.QuantumRecord, len(tr.Spans))
	labels := map[int]string{}
	for i, s := range tr.Spans {
		records[i] = core.QuantumRecord{
			Client: int(s.Device), JobID: int(s.Req), Start: s.Start, End: s.End,
			GPUDuration: time.Duration(s.Arg), ActiveJobs: int(s.Seq), OverflowKernels: int(s.Class),
		}
		if _, ok := labels[int(s.Device)]; !ok {
			labels[int(s.Device)] = s.Name
		}
	}
	got.Reset()
	want.Reset()
	if err := WriteChromeTrace(&got, records, labels); err != nil {
		t.Fatal(err)
	}
	if err := refWriteChromeTrace(&want, records, labels); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("chrome trace differs from reference\n got %s\nwant %s", got.Bytes(), want.Bytes())
	}
}

// tickTimes returns the sample-time function of a timeline with the given
// trace offset and tick interval, starting at tick start.
func tickTimes(off, interval int64, start int) func(int) int64 {
	return func(i int) int64 { return off + int64(start+i+1)*interval }
}

// TestLifecycleMatchesReference covers the encoder's edge cases
// explicitly: HTML-unsafe, control, separator and invalid UTF-8 bytes in
// names, times around the decimal fast path's bound and beyond 2^53 ns,
// negative times, ids and devices, burn values needing 'e' format or
// rendering as -0, and each non-finite burn value.
func TestLifecycleMatchesReference(t *testing.T) {
	names := []string{"queue", `a<b>&"c\`, "tab\there\nnl\r\b\f\x00\x1f\x7f", "sep\u2028par\u2029", "bad\xff\xfe utf8 \xe2\x82", "\u00fcn\u00ef\u00a9\u00f8d\u00e9"}
	times := []int64{0, 1, -1, 999, 1000, 1001, -1500, 123456789, 1e15 - 1, 1e15, -1e15 + 1, -1e15, 1<<53 + 1, math.MaxInt64, math.MinInt64}
	tr := &obs.Trace{}
	for i, ts := range times {
		name := names[i%len(names)]
		tr.Spans = append(tr.Spans, obs.Span{
			Req: int32(i) - 3, Seq: uint32(i) * 1e8, Class: int8(i%4) - 2, Device: int16(i*2340) - 1,
			Layer: obs.Layer(i % 9), Name: name, Start: sim.Time(ts), End: sim.Time(ts / 3), Arg: ts,
		})
		tr.Instants = append(tr.Instants, obs.Instant{
			Req: -int32(i), Class: int8(i), Device: math.MaxInt16 - int16(i), Layer: obs.Layer(i % 8),
			Name: name, At: sim.Time(-ts), Arg: -ts,
		})
	}
	burns := map[string][]float64{
		"lat/fast":        {0, math.Copysign(0, -1), 1e-6, 9.99e-7, 1e-7, 1.5e-300, 5e-324, 0.1, 2.5, 1e20, 1e21, 1.7976931348623157e308, -1e-7, -3e21},
		"q<&>/slow\u2028": {12345.678, 1.0 / 3},
	}
	checkReference(t, tr, burns, tickTimes(-7, 5e6, 3))
	checkReference(t, tr, burns, tickTimes(math.MaxInt64-1e7, 3e6, 0))
	checkReference(t, &obs.Trace{}, nil, nil)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkReference(t, tr, map[string][]float64{"a/b": {1, bad}}, tickTimes(0, 1, 0))
	}
}

// TestTimelineMatchesReference renders through the exported entry point
// with a real telemetry timeline, so the tick-time mapping (Start, the
// interval and the trace offset) is compared with the reference too.
func TestTimelineMatchesReference(t *testing.T) {
	tr := lifecycleFixture(t)
	tl := &telemetry.Timeline{Interval: 5 * time.Millisecond, Ticks: 9, Start: 2}
	tl.Evaluate(telemetry.DefaultServingSLOs(), telemetry.DefaultRules())
	if len(tl.Burns()) == 0 {
		t.Fatal("timeline has no burn series")
	}
	var got, want bytes.Buffer
	if err := WriteLifecycleTimeline(&got, tr, tl); err != nil {
		t.Fatal(err)
	}
	if err := refWriteLifecycleTimeline(&want, tr, tl); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("timeline trace differs from reference\n got %s\nwant %s", got.Bytes(), want.Bytes())
	}
}

// fuzzReader decodes fuzz bytes into trace fields, yielding zeros once
// the input runs out.
type fuzzReader []byte

func (r *fuzzReader) bytes(n int) []byte {
	n = min(n, len(*r))
	b := (*r)[:n]
	*r = (*r)[n:]
	return b
}

// u reads an n-byte little-endian unsigned integer.
func (r *fuzzReader) u(n int) uint64 {
	var b [8]byte
	copy(b[:], r.bytes(n))
	return binary.LittleEndian.Uint64(b[:])
}

// time returns a nanosecond count of any sign whose magnitude ranges from
// zero to beyond 2^53.
func (r *fuzzReader) time() int64 { return int64(r.u(8)) >> (r.u(1) % 64) }

func (r *fuzzReader) name() string { return string(r.bytes(int(r.u(1) % 16))) }

// FuzzLifecycleEncoding holds the streaming writers byte-identical to the
// reflection-based reference encoder on arbitrary traces and burn series:
// arbitrary name bytes, times of any sign and magnitude, any device,
// class, layer and request, and burn values of any bit pattern, where a
// non-finite value must fail before anything is written.
func FuzzLifecycleEncoding(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00\x05queue\x10\x27\x00\x00\x00\x00\x00\x00\x04\x01\x02"))
	f.Add([]byte("\x01\x03a<b\xff\xff\xff\xff\xff\xff\xff\x7f\x00\xff\x7f\x80\x02\x05\xe2\x80\xa8\xff\xfe"))
	f.Add([]byte("\x02\x04fast\x00\x00\x00\x00\x00\x00\xf8\x7f\x02\x04slow\x00\x00\x00\x00\x00\x00\xf0\x7f"))
	f.Add(bytes.Repeat([]byte{0x93, 0x11, 0xfe, 0x3c, 0x00, 0x80, 0x7f}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzReader(data)
		tr := &obs.Trace{}
		burns := map[string][]float64{}
		off, interval := r.time(), r.time()
		for len(r) > 0 {
			switch r.u(1) % 3 {
			case 0:
				tr.Spans = append(tr.Spans, obs.Span{
					Name: r.name(), Start: sim.Time(r.time()), End: sim.Time(r.time()),
					Req: int32(r.u(4)), Seq: uint32(r.u(4)), Class: int8(r.u(1)),
					Device: int16(r.u(2)), Layer: obs.Layer(r.u(1)), Arg: int64(r.u(8)),
				})
			case 1:
				tr.Instants = append(tr.Instants, obs.Instant{
					Name: r.name(), At: sim.Time(r.time()),
					Req: int32(r.u(4)), Class: int8(r.u(1)),
					Device: int16(r.u(2)), Layer: obs.Layer(r.u(1)), Arg: int64(r.u(8)),
				})
			default:
				k := r.name()
				burns[k] = append(burns[k], math.Float64frombits(r.u(8)))
			}
		}
		checkReference(t, tr, burns, tickTimes(off, interval, 0))
	})
}
