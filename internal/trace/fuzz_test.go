package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"kleb/internal/isa"
	"kleb/internal/ktime"
	"kleb/internal/monitor"
)

// refWriteCSV is the fmt-based CSV writer WriteCSV replaced, kept as its
// oracle: every field goes through fmt, and the time is a "%.1f" of the
// sample time in microseconds.
func refWriteCSV(w io.Writer, events []isa.Event, samples []monitor.Sample) error {
	cols := make([]string, 0, len(events)+1)
	cols = append(cols, "time_us")
	for _, ev := range events {
		cols = append(cols, ev.String())
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for _, s := range samples {
		row := make([]string, 0, len(events)+1)
		row = append(row, fmt.Sprintf("%.1f", float64(s.Time)/1000))
		for i := range events {
			var v uint64
			if i < len(s.Deltas) {
				v = s.Deltas[i]
			}
			row = append(row, fmt.Sprintf("%d", v))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// microsRef is the rendering appendMicros must reproduce.
func microsRef(t ktime.Time) string {
	return strconv.FormatFloat(float64(t)/1000, 'f', 1, 64)
}

// microsCases are appendMicros' edge cases: ties, the carry into the
// integer part, both sides of the 2^50 ns switch to strconv, and the
// largest time.
var microsCases = []struct {
	ns   uint64
	want string
}{
	{0, "0.0"},
	{49, "0.0"},
	{50, "0.1"}, // a tie: the double 0.05 is just above it
	{51, "0.1"},
	{1250, "1.2"}, // exact binary ties round to even
	{1750, "1.8"},
	{9960, "10.0"}, // the carry into the integer part
	{1<<50 - 1, "1125899906842.6"},
	{1 << 50, "1125899906842.6"},
	{1<<55 + 83, "36028797018964.0"}, // the integer path would give .1
	{^uint64(0), "18446744073709552.0"},
}

func TestAppendMicros(t *testing.T) {
	for _, c := range microsCases {
		got := string(appendMicros([]byte("x"), ktime.Time(c.ns)))
		if got != "x"+c.want || c.want != microsRef(ktime.Time(c.ns)) {
			t.Errorf("appendMicros(%d) = %q, want %q (strconv %q)", c.ns, got[1:], c.want, microsRef(ktime.Time(c.ns)))
		}
	}
}

// decodeSeries decodes a sample series from fuzz bytes. The first byte
// picks 0–4 event columns and the next bytes their events. Each sample is
// a flags byte, an 8-byte time and 8 bytes per delta: the flags' low bits
// give the delta count, from none to one more than there are columns, so
// rows run short and long; bit 7 keeps the time as it is, and without it
// the time is reduced mod 2^50, where appendMicros takes its integer path.
// Missing bytes read as zero.
func decodeSeries(data []byte) ([]isa.Event, []monitor.Sample) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	word := func() uint64 {
		var b [8]byte
		data = data[copy(b[:], data):]
		return binary.LittleEndian.Uint64(b[:])
	}
	events := make([]isa.Event, next()%5)
	for i := range events {
		events[i] = isa.Event(next() % uint8(isa.NumEvents))
	}
	var samples []monitor.Sample
	for len(data) > 0 {
		flags := next()
		s := monitor.Sample{Time: ktime.Time(word())}
		if flags&0x80 == 0 {
			s.Time %= 1 << 50
		}
		s.Deltas = make([]uint64, int(flags&0x7f)%(len(events)+2))
		for i := range s.Deltas {
			s.Deltas[i] = word()
		}
		samples = append(samples, s)
	}
	return events, samples
}

// encodeSample encodes one row in decodeSeries' format, its time kept as
// it is.
func encodeSample(b []byte, ns uint64, deltas ...uint64) []byte {
	b = append(b, 0x80|byte(len(deltas)))
	b = binary.LittleEndian.AppendUint64(b, ns)
	for _, d := range deltas {
		b = binary.LittleEndian.AppendUint64(b, d)
	}
	return b
}

// FuzzCSVMatchesReference requires WriteCSV, the K-LEB log's encoder, to
// write exactly the bytes of the fmt writer it replaced, for random sample
// series.
func FuzzCSVMatchesReference(f *testing.F) {
	// One row per edge-case time, in one INST_RETIRED column.
	for _, c := range microsCases {
		f.Add(encodeSample([]byte{1, byte(isa.EvInstructions)}, c.ns, 42))
	}
	f.Add([]byte{})
	// Four columns: a full row, a short one and a long one.
	four := []byte{4, byte(isa.EvInstructions), byte(isa.EvLLCMisses), byte(isa.EvLoads), byte(isa.EvStores)}
	four = encodeSample(four, 100_000, 1000, 5, 300, ^uint64(0))
	four = encodeSample(four, 200_050, 7)
	f.Add(encodeSample(four, 300_149, 1, 2, 3, 4, 5))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, samples := decodeSeries(data)
		var got, want bytes.Buffer
		if err := WriteCSV(&got, events, samples); err != nil {
			t.Fatal(err)
		}
		if err := refWriteCSV(&want, events, samples); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			g, w := got.Bytes(), want.Bytes()
			i := 0
			for i < len(g) && i < len(w) && g[i] == w[i] {
				i++
			}
			lo := max(i-60, 0)
			t.Fatalf("CSV differs from the fmt reference at byte %d (lengths %d, %d):\n got  %q\n want %q",
				i, len(g), len(w), g[lo:min(i+60, len(g))], w[lo:min(i+60, len(w))])
		}
	})
}
