package trace

import (
	"io"
	"strconv"
	"strings"

	"kleb/internal/isa"
	"kleb/internal/ktime"
	"kleb/internal/monitor"
)

// WriteCSV renders a sample series as CSV: a header of event mnemonics,
// then one row per sample with the timestamp in microseconds. This is the
// K-LEB controller's log file format; the series is rendered into one
// buffer and written to w once.
func WriteCSV(w io.Writer, events []isa.Event, samples []monitor.Sample) error {
	buf := AppendCSVHeader(nil, events)
	for i := range samples {
		buf = AppendCSVRow(buf, &samples[i], len(events))
	}
	_, err := w.Write(buf)
	return err
}

// AppendCSVHeader appends the log's header line to buf: "time_us", then
// one column per event mnemonic.
func AppendCSVHeader(buf []byte, events []isa.Event) []byte {
	buf = append(buf, "time_us"...)
	for _, ev := range events {
		buf = append(buf, ',')
		buf = append(buf, ev.String()...)
	}
	return append(buf, '\n')
}

// AppendCSVRow appends s as one log row of n count columns to buf; a
// sample with fewer than n deltas reads 0 in the missing columns.
func AppendCSVRow(buf []byte, s *monitor.Sample, n int) []byte {
	buf = appendMicros(buf, s.Time)
	for i := 0; i < n; i++ {
		var v uint64
		if i < len(s.Deltas) {
			v = s.Deltas[i]
		}
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, v, 10)
	}
	return append(buf, '\n')
}

// appendMicros appends t as microseconds with one decimal, byte for byte
// what strconv.AppendFloat(buf, float64(t)/1000, 'f', 1, 64) appends, but in
// integer arithmetic: AppendFloat with a fixed precision always takes
// strconv's arbitrary-precision path. The integer rounding is exact below
// 2^50 ns, where the double's error is under 1/8000 µs, because a time
// whose remainder mod 100 ns is not 50 lies at least 1 ns from a rounding
// boundary. An exact tie rounds by its binary value, so ties and larger
// times go through strconv.
func appendMicros(buf []byte, t ktime.Time) []byte {
	ns := uint64(t)
	rem := ns % 100
	if rem == 50 || ns >= 1<<50 {
		return strconv.AppendFloat(buf, float64(ns)/1000, 'f', 1, 64)
	}
	tenths := ns / 100
	if rem > 50 {
		tenths++
	}
	buf = strconv.AppendUint(buf, tenths/10, 10)
	return append(buf, '.', byte('0'+tenths%10))
}

// Bucket aggregates a delta series into n equal-count buckets (summing
// deltas), for compact textual rendering of long time series.
func Bucket(series []uint64, n int) []uint64 {
	if n <= 0 || len(series) == 0 {
		return nil
	}
	if n > len(series) {
		n = len(series)
	}
	out := make([]uint64, n)
	for i, v := range series {
		out[i*n/len(series)] += v
	}
	return out
}

// Sparkline renders a delta series as a one-line unicode bar chart — handy
// for eyeballing phase behaviour (Fig 4/7) in terminal output.
func Sparkline(series []uint64, width int) string {
	levels := []rune(" ▁▂▃▄▅▆▇█")
	b := Bucket(series, width)
	if len(b) == 0 {
		return ""
	}
	var max uint64
	for _, v := range b {
		if v > max {
			max = v
		}
	}
	var sb strings.Builder
	for _, v := range b {
		idx := 0
		if max > 0 {
			idx = int(v * uint64(len(levels)-1) / max)
		}
		sb.WriteRune(levels[idx])
	}
	return sb.String()
}
