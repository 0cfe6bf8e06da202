package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

func readResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc := &results{}
	if err := json.Unmarshal(data, doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// verdict judges b (the change) against a (the parent) on one metric:
// "worse" when b's median is worse than a's by more than the bound,
// "unresolved" when either side's run-to-run spread exceeds the bound
// (unless every run of b reads better than every run of a), else "ok".
func verdict(m metricSpec, a, b *metricSeries) string {
	lower := m.Better == "lower"
	if max(spread(a.Values), spread(b.Values)) > m.Bound {
		sa, sb := sorted(a.Values), sorted(b.Values)
		allBetter := sb[len(sb)-1] < sa[0]
		if !lower {
			allBetter = sb[0] > sa[len(sa)-1]
		}
		if !allBetter {
			return "unresolved"
		}
	}
	worse := b.Median > a.Median*(1+m.Bound)
	if !lower {
		worse = b.Median < a.Median*(1-m.Bound)
	}
	if worse {
		return "worse"
	}
	return "ok"
}

// compareFiles prints one row per workload x end-to-end metric: both
// medians, their ratio with its base, each side's spread, the verdict.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A = %s (nproc %d, GOMAXPROCS %d, %d runs)\nB = %s (nproc %d, GOMAXPROCS %d, %d runs)\n",
		pathA, a.NProc, a.GOMAXPROCS, a.Runs, pathB, b.NProc, b.GOMAXPROCS, b.Runs)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tB median\tunit\tB/A\tspread A\tspread B\tbound\tverdict")
	for _, wl := range catalog {
		wa, wb := a.Workloads[wl.name], b.Workloads[wl.name]
		if wa == nil || wb == nil {
			continue
		}
		for _, m := range endToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			if sa == nil || sb == nil {
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%.3f\t%.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				wl.name, m.Name, sa.Median, sb.Median, m.Unit, ratio(sb.Median, sa.Median),
				100*spread(sa.Values), 100*spread(sb.Values), 100*m.Bound, verdict(m, sa, sb))
		}
		if wa.Failed != 0 || wb.Failed != 0 {
			fmt.Fprintf(tw, "%s\tfailed/attempted\t%d/%d\t%d/%d\t\t\t\t\t\tFAILED\n",
				wl.name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
		}
	}
	return tw.Flush()
}
