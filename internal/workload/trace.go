package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"hta/internal/resources"
	"hta/internal/wq"
)

// TraceColumns documents the CSV schema ReadTrace accepts. The header
// row is required; columns may appear in any order and unknown
// columns are ignored:
//
//	category   string  (required) task category / stage tag
//	exec_s     float   (required) execution time in seconds
//	cpu_milli  int     busy millicores while executing (default 900)
//	memory_mb  int     peak memory (default 512)
//	disk_mb    int     peak scratch disk (default 0)
//	input_mb   float   private input size (default 0)
//	output_mb  float   output size (default 0)
//	cores      float   declared requirement in cores (0 = unknown)
//
// This lets a user replay the per-task measurements of a real HTC run
// (e.g. exported from Work Queue's resource monitor) through the
// simulated autoscalers.
const TraceColumns = "category,exec_s,cpu_milli,memory_mb,disk_mb,input_mb,output_mb,cores"

// ReadTrace parses a task trace CSV into task specs, in file order.
func ReadTrace(r io.Reader) ([]wq.TaskSpec, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("workload: trace header: %w", err)
	}
	col := make(map[string]int, len(header))
	for i, name := range header {
		col[name] = i
	}
	for _, required := range []string{"category", "exec_s"} {
		if _, ok := col[required]; !ok {
			return nil, fmt.Errorf("workload: trace missing required column %q (schema: %s)", required, TraceColumns)
		}
	}

	get := func(rec []string, name string) string {
		if i, ok := col[name]; ok && i < len(rec) {
			return rec[i]
		}
		return ""
	}
	// The numeric columns and their defaults, in schema order.
	numeric := [...]struct {
		name string
		def  float64
	}{{"exec_s", -1}, {"cpu_milli", 900}, {"memory_mb", 512}, {"disk_mb", 0}, {"input_mb", 0}, {"output_mb", 0}, {"cores", 0}}

	var specs []wq.TaskSpec
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: %w", line, err)
		}
		category := get(rec, "category")
		if category == "" {
			return nil, fmt.Errorf("workload: trace line %d: empty category", line)
		}
		var v [len(numeric)]float64
		for k, c := range numeric {
			v[k] = c.def
			if s := get(rec, c.name); s != "" {
				if v[k], err = strconv.ParseFloat(s, 64); err != nil {
					return nil, fmt.Errorf("workload: trace line %d: workload: bad %s value %q", line, c.name, s)
				}
			}
			if k == 0 && !(v[0] >= 0 && v[0] <= 9e9) { // a Duration holds ~292 years
				return nil, fmt.Errorf("workload: trace line %d: missing, negative or too large exec_s", line)
			}
		}
		execS, cpu, mem, disk, inMB, outMB, cores := v[0], v[1], v[2], v[3], v[4], v[5], v[6]
		spec := wq.TaskSpec{
			Command:  "trace-task " + strconv.Itoa(line-2),
			Category: category,
			InputMB:  inMB,
			OutputMB: outMB,
			Profile: wq.Profile{
				ExecDuration: time.Duration(execS * float64(time.Second)),
				UsedCPUMilli: int64(cpu),
				UsedMemoryMB: int64(mem),
				UsedDiskMB:   int64(disk),
			},
		}
		if cores > 0 {
			spec.Resources = resources.Vector{
				MilliCPU: int64(cores * 1000),
				MemoryMB: int64(mem),
				DiskMB:   int64(disk),
			}
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("workload: trace contains no tasks")
	}
	return specs, nil
}
