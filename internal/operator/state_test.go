package operator

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"hta/internal/kubeclient"
	"hta/internal/kubeclient/kubetest"
	"hta/internal/monitor"
	"hta/internal/wq/wire"
)

// stateWith returns a checkpoint whose one category carries the given
// JSON fields.
func stateWith(fields string) string {
	return `{"monitor":{"categories":[{"category":"c","count":3,` + fields + `}]},"init_time_ns":5000000000,"measured":true,"seq":4}`
}

// TestDecodeStateRejects pins which checkpoints loadState ignores:
// torn JSON and learned state no run could have produced.
func TestDecodeStateRejects(t *testing.T) {
	cases := []struct {
		name  string
		data  string
		valid bool
	}{
		{"observed", stateWith(`"maxusage":{"millicpu":900,"memorymb":512,"diskmb":10},"totalexec":3000000000,"maxexec":1500000000`), true},
		{"empty", `{}`, true},
		{"torn", `{"monitor":{"categories":[{"cat`, false},
		{"negative cpu", stateWith(`"maxusage":{"millicpu":-900,"memorymb":512}`), false},
		{"negative memory", stateWith(`"maxusage":{"millicpu":900,"memorymb":-1}`), false},
		{"negative disk", stateWith(`"maxusage":{"diskmb":-10}`), false},
		{"negative total exec", stateWith(`"totalexec":-1`), false},
		{"negative max exec", stateWith(`"maxexec":-1`), false},
	}
	for _, tc := range cases {
		_, err := decodeState([]byte(tc.data))
		if (err == nil) != tc.valid {
			t.Errorf("%s: decodeState = %v, want valid %v", tc.name, err, tc.valid)
		}
	}
}

// TestOperatorIgnoresImpossibleState starts against a checkpoint with
// a negative usage maximum: the operator must warn, start fresh and
// learn nothing from it.
func TestOperatorIgnoresImpossibleState(t *testing.T) {
	srv := kubetest.NewServer()
	defer srv.Close()
	client, _ := kubeclient.New(kubeclient.Config{BaseURL: srv.URL()})
	master, err := wire.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	statePath := filepath.Join(t.TempDir(), "state.json")
	if err := os.WriteFile(statePath, []byte(stateWith(`"maxusage":{"millicpu":-900}`)), 0o644); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var logs []string
	op, err := New(Config{
		Client: client, Master: master,
		WorkerImage: "wq-worker:latest",
		StatePath:   statePath,
		Logf: func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("impossible checkpoint bricked the operator: %v", err)
	}
	if op.Monitor().Known("c") {
		t.Error("impossible checkpoint produced learned state")
	}
	if _, measured := op.InitTime(); measured {
		t.Error("impossible checkpoint restored a measured init time")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(logs) == 0 || !strings.Contains(logs[0], "ignoring corrupt state") {
		t.Errorf("logs = %q, want the corrupt-state warning", logs)
	}
}

// FuzzDecodeState fuzzes checkpoint decoding and import: any file
// decodeState accepts must import into estimates that are defined and
// non-negative for every category it learned.
func FuzzDecodeState(f *testing.F) {
	f.Add([]byte(stateWith(`"maxusage":{"millicpu":900,"memorymb":512,"diskmb":10},"totalexec":3000000000,"maxexec":1500000000`)))
	f.Add([]byte(stateWith(`"maxusage":{"millicpu":-900}`)))
	f.Add([]byte(stateWith(`"maxusage":{"millicpu":9223372036854775807}`)))
	f.Add([]byte(stateWith(`"totalexec":-1`)))
	f.Add([]byte(`{"monitor":{"categories":[{"category":"c","count":0,"maxexec":-5}]}}`))
	f.Add([]byte(`{"monitor":{"categories":[{"cat`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeState(data)
		if err != nil {
			return
		}
		mon := monitor.New()
		mon.ImportState(st.Monitor)
		for _, cat := range mon.Categories() {
			v, ok := mon.EstimateResources(cat)
			if !ok || !v.IsNonNegative() {
				t.Fatalf("category %q: resource estimate %+v, %v", cat, v, ok)
			}
			d, ok := mon.EstimateExecTime(cat)
			if !ok || d < 0 {
				t.Fatalf("category %q: exec-time estimate %v, %v", cat, d, ok)
			}
		}
	})
}
