package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// spec is the part of BENCHMARK.json the benchmark reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareMain prints, for every workload and end-to-end metric, each
// side's median and quartiles over its -out files and their spread (the
// quartile distance over the median). Every side after the first is
// compared with the first: a median that moved beyond the metric's
// bound in BENCHMARK.json is flagged, and a move for the worse makes the
// exit status 1. A spread wider than the bound is flagged too.
func compareMain(sides []string, stdout io.Writer) int {
	if len(sides) == 0 {
		fmt.Fprintln(os.Stderr, "bench: -compare needs at least one side: a comma-separated list of -out files")
		return 2
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	// vals[side][workload][metric] holds one value per result file.
	vals := make([]map[string]map[string][]float64, len(sides))
	for i, side := range sides {
		vals[i] = map[string]map[string][]float64{}
		for _, path := range strings.Split(side, ",") {
			data, err := os.ReadFile(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 2
			}
			var rep report
			if err := json.Unmarshal(data, &rep); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", path, err)
				return 2
			}
			for w, res := range rep.Workloads {
				if vals[i][w] == nil {
					vals[i][w] = map[string][]float64{}
				}
				for m, v := range res.E2E {
					vals[i][w][m] = append(vals[i][w][m], v.Value)
				}
			}
		}
	}
	worse := false
	for _, w := range workloadNames {
		for _, m := range sp.EndToEnd {
			var cols []string
			var base float64
			for i := range sides {
				xs := vals[i][w][m.Name]
				if len(xs) == 0 {
					cols = append(cols, "-")
					continue
				}
				med := median(xs)
				q1, q3 := quartiles(xs)
				col := fmt.Sprintf("%.4g [%.4g, %.4g] n=%d spread=%.1f%%", med, q1, q3, len(xs), 100*(q3-q1)/med)
				if (q3-q1)/med > m.Bound {
					col += " NOISY"
				}
				if i == 0 {
					base = med
				} else if base != 0 {
					change := (med - base) / base
					col += fmt.Sprintf(" %+.1f%%", 100*change)
					if m.Better == "higher" {
						change = -change
					}
					switch {
					case change > m.Bound:
						col += " REGRESSION"
						worse = true
					case change < -m.Bound:
						col += " improved"
					}
				}
				cols = append(cols, col)
			}
			if strings.Trim(strings.Join(cols, ""), "-") == "" {
				continue
			}
			fmt.Fprintf(stdout, "%-14s %-15s bound %.0f%% | %s\n", w, m.Name, 100*m.Bound, strings.Join(cols, " | "))
		}
	}
	if worse {
		return 1
	}
	return 0
}
