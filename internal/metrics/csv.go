package metrics

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"time"
)

// WriteCSVColumns writes multiple series as aligned columns sampled
// at the union of all their timestamps: elapsed seconds first, then
// one column per series holding its step-function value at that time.
// It is the format the paper-style supply/demand plots (Fig. 10b,
// Fig. 11b) are drawn from.
func WriteCSVColumns(w io.Writer, start time.Time, series ...*Series) error {
	stamps := make(map[time.Time]bool)
	for _, s := range series {
		for _, t := range s.times {
			stamps[t] = true
		}
	}
	times := make([]time.Time, 0, len(stamps))
	for t := range stamps {
		times = append(times, t)
	}
	slices.SortFunc(times, func(a, b time.Time) int { return a.Compare(b) })

	cw := csv.NewWriter(w)
	header := make([]string, 0, len(series)+1)
	header = append(header, "elapsed_s")
	for _, s := range series {
		header = append(header, s.Name)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(header))
	for _, t := range times {
		row[0] = fmt.Sprintf("%.1f", t.Sub(start).Seconds())
		for i, s := range series {
			row[i+1] = fmt.Sprintf("%g", s.ValueAt(t))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
