package workload

import (
	"strings"
	"testing"
	"time"
)

const sampleTrace = `category,exec_s,cpu_milli,memory_mb,disk_mb,input_mb,output_mb,cores
align,53.5,870,3800,1500,0,0.6,1
align,49.1,850,3700,1500,0,0.6,1
io,100,150,256,4000,0,0,0
`

func TestReadTrace(t *testing.T) {
	specs, err := ReadTrace(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("specs = %d", len(specs))
	}
	a := specs[0]
	if a.Category != "align" {
		t.Errorf("category = %q", a.Category)
	}
	if a.Profile.ExecDuration != 53500*time.Millisecond {
		t.Errorf("exec = %v", a.Profile.ExecDuration)
	}
	if a.Profile.UsedCPUMilli != 870 || a.Profile.UsedMemoryMB != 3800 {
		t.Errorf("profile = %+v", a.Profile)
	}
	if a.Resources.MilliCPU != 1000 || a.Resources.MemoryMB != 3800 {
		t.Errorf("declared = %v", a.Resources)
	}
	if a.OutputMB != 0.6 {
		t.Errorf("output = %v", a.OutputMB)
	}
	// cores=0 leaves requirements unknown.
	if !specs[2].Resources.IsZero() {
		t.Errorf("io task resources = %v, want unknown", specs[2].Resources)
	}
}

func TestReadTraceColumnOrderIrrelevant(t *testing.T) {
	src := "exec_s,category\n10,stage1\n"
	specs, err := ReadTrace(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].Category != "stage1" || specs[0].Profile.ExecDuration != 10*time.Second {
		t.Errorf("spec = %+v", specs[0])
	}
	// Defaults applied for missing columns.
	if specs[0].Profile.UsedCPUMilli != 900 || specs[0].Profile.UsedMemoryMB != 512 {
		t.Errorf("defaults = %+v", specs[0].Profile)
	}
}

func TestReadTraceErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"missing category column", "exec_s\n10\n"},
		{"missing exec column", "category\nx\n"},
		{"empty category", "category,exec_s\n,10\n"},
		{"negative exec", "category,exec_s\nx,-5\n"},
		{"bad number", "category,exec_s,cpu_milli\nx,10,lots\n"},
		{"no tasks", "category,exec_s\n"},
		{"empty file", ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ReadTrace(strings.NewReader(c.src)); err == nil {
				t.Errorf("ReadTrace(%q) should fail", c.src)
			}
		})
	}
}
