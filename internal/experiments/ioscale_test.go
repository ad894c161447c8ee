package experiments

import (
	"testing"
	"time"
)

// ioScaleSmall is a shrunken E-H configuration: same cell structure
// (HTA and pinned-HPA per fleet size), fleets small enough that a
// cell runs in milliseconds.
func ioScaleSmall() IOScaleConfig {
	return IOScaleConfig{
		Workers:        []int{3, 6},
		TasksPerWorker: 2,
		ExecMean:       10 * time.Second,
		ExecJitter:     0.10,
		InputMB:        5,
		OutputMB:       1,
		LinkMBps:       200,
		PerTransfer:    50,
		Seed:           7,
	}
}

func TestIOScaleSmallDeterministic(t *testing.T) {
	first, err := IOScaleEHWith(ioScaleSmall())
	if err != nil {
		t.Fatalf("IOScaleEHWith: %v", err)
	}
	if len(first.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(first.Rows))
	}
	for _, row := range first.Rows {
		if row.Completed != row.Tasks || row.Submitted != row.Tasks {
			t.Errorf("%s/W=%d: completed %d submitted %d, want %d",
				row.Scaler, row.Workers, row.Completed, row.Submitted, row.Tasks)
		}
		if row.Runtime <= 0 {
			t.Errorf("%s/W=%d: runtime %v", row.Scaler, row.Workers, row.Runtime)
		}
		if row.AvgMBps <= 0 {
			t.Errorf("%s/W=%d: no link traffic recorded", row.Scaler, row.Workers)
		}
	}
	second, err := IOScaleEHWith(ioScaleSmall())
	if err != nil {
		t.Fatalf("IOScaleEHWith (second): %v", err)
	}
	if first.String() != second.String() {
		t.Errorf("E-H not deterministic:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}
