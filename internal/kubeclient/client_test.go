package kubeclient_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"hta/internal/kubeclient"
	"hta/internal/kubeclient/kubetest"
)

func newClient(t *testing.T) (*kubetest.Server, *kubeclient.Client) {
	t.Helper()
	srv := kubetest.NewServer()
	t.Cleanup(srv.Close)
	c, err := kubeclient.New(kubeclient.Config{BaseURL: srv.URL(), Namespace: "default"})
	if err != nil {
		t.Fatal(err)
	}
	return srv, c
}

func workerPod(name string) kubeclient.Pod {
	return kubeclient.Pod{
		Metadata: kubeclient.ObjectMeta{
			Name:   name,
			Labels: map[string]string{"app": "wq-worker"},
		},
		Spec: kubeclient.PodSpec{
			Containers: []kubeclient.Container{{
				Name:  "worker",
				Image: "wq-worker:latest",
				Resources: kubeclient.ResourceRequirements{
					Requests: kubeclient.ResourceList{"cpu": "3", "memory": "12288Mi"},
				},
			}},
		},
	}
}

func TestPodLifecycle(t *testing.T) {
	srv, c := newClient(t)
	ctx := context.Background()

	created, err := c.CreatePod(ctx, workerPod("w1"))
	if err != nil {
		t.Fatal(err)
	}
	if created.Metadata.UID == "" || created.Metadata.CreationTimestamp == "" {
		t.Errorf("server did not fill metadata: %+v", created.Metadata)
	}
	if created.Status.Phase != kubeclient.PodPending {
		t.Errorf("phase = %q, want Pending", created.Status.Phase)
	}
	if created.Metadata.Created().IsZero() {
		t.Error("Created() is zero")
	}

	got, err := c.GetPod(ctx, "w1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Metadata.Name != "w1" || got.Spec.Containers[0].Image != "wq-worker:latest" {
		t.Errorf("pod = %+v", got)
	}

	srv.SetPodPhase("default", "w1", kubeclient.PodRunning)
	got, _ = c.GetPod(ctx, "w1")
	if got.Status.Phase != kubeclient.PodRunning || got.Status.StartTime == "" {
		t.Errorf("status = %+v", got.Status)
	}

	if err := c.DeletePod(ctx, "w1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetPod(ctx, "w1"); err == nil {
		t.Error("get after delete should fail")
	}
	if err := c.DeletePod(ctx, "w1"); err == nil {
		t.Error("double delete should fail")
	}
}

func TestCreateValidationAndConflict(t *testing.T) {
	_, c := newClient(t)
	ctx := context.Background()
	if _, err := c.CreatePod(ctx, kubeclient.Pod{}); err == nil {
		t.Error("nameless pod should fail")
	}
	bad := workerPod("x")
	bad.Spec.Containers = nil
	if _, err := c.CreatePod(ctx, bad); err == nil {
		t.Error("containerless pod should fail")
	}
	if _, err := c.CreatePod(ctx, workerPod("dup")); err != nil {
		t.Fatal(err)
	}
	_, err := c.CreatePod(ctx, workerPod("dup"))
	if err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Errorf("duplicate error = %v", err)
	}
}

func TestListPodsWithSelector(t *testing.T) {
	_, c := newClient(t)
	ctx := context.Background()
	c.CreatePod(ctx, workerPod("w2"))
	c.CreatePod(ctx, workerPod("w1"))
	other := workerPod("other")
	other.Metadata.Labels = map[string]string{"app": "something-else"}
	c.CreatePod(ctx, other)

	pods, err := c.ListPods(ctx, map[string]string{"app": "wq-worker"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pods) != 2 || pods[0].Metadata.Name != "w1" || pods[1].Metadata.Name != "w2" {
		t.Errorf("pods = %+v", pods)
	}
	all, err := c.ListPods(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Errorf("all pods = %d", len(all))
	}
}

func TestWatchStreamsLifecycle(t *testing.T) {
	srv, c := newClient(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Pre-existing pod arrives as the initial ADDED.
	c.CreatePod(ctx, workerPod("pre"))
	events, err := c.WatchPods(ctx, map[string]string{"app": "wq-worker"})
	if err != nil {
		t.Fatal(err)
	}
	next := func(what string) kubeclient.PodEvent {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("watch closed waiting for %s", what)
			}
			return ev
		case <-time.After(5 * time.Second):
			t.Fatalf("timeout waiting for %s", what)
		}
		panic("unreachable")
	}
	if ev := next("initial sync"); ev.Type != kubeclient.WatchAdded || ev.Pod.Metadata.Name != "pre" {
		t.Fatalf("initial = %+v", ev)
	}
	c.CreatePod(ctx, workerPod("live"))
	if ev := next("ADDED"); ev.Type != kubeclient.WatchAdded || ev.Pod.Metadata.Name != "live" {
		t.Fatalf("added = %+v", ev)
	}
	srv.SetPodPhase("default", "live", kubeclient.PodRunning)
	if ev := next("MODIFIED"); ev.Type != kubeclient.WatchModified || ev.Pod.Status.Phase != kubeclient.PodRunning {
		t.Fatalf("modified = %+v", ev)
	}
	c.DeletePod(ctx, "live")
	if ev := next("DELETED"); ev.Type != kubeclient.WatchDeleted {
		t.Fatalf("deleted = %+v", ev)
	}
	// Foreign-label pods never appear on this watch.
	other := workerPod("foreign")
	other.Metadata.Labels = map[string]string{"app": "else"}
	c.CreatePod(ctx, other)
	select {
	case ev := <-events:
		t.Fatalf("unexpected event %+v", ev)
	case <-time.After(100 * time.Millisecond):
	}
	cancel()
	// Channel closes after cancellation.
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-events:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("watch channel never closed")
		}
	}
}

func TestAutoRun(t *testing.T) {
	srv, c := newClient(t)
	srv.AutoRun(30 * time.Millisecond)
	ctx := context.Background()
	c.CreatePod(ctx, workerPod("auto"))
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		p, _ := c.GetPod(ctx, "auto")
		if p.Status.Phase == kubeclient.PodRunning {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("auto-run never transitioned the pod")
}

func TestQuantityParsing(t *testing.T) {
	cpu := map[string]int64{"2": 2000, "500m": 500, "1.5": 1500, "0": 0}
	for in, want := range cpu {
		got, err := kubeclient.ParseCPUQuantity(in)
		if err != nil || got != want {
			t.Errorf("ParseCPUQuantity(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "-1", "lots", "2mm"} {
		if _, err := kubeclient.ParseCPUQuantity(bad); err == nil {
			t.Errorf("ParseCPUQuantity(%q) should fail", bad)
		}
	}
	mem := map[string]int64{
		"4Gi": 4096, "4096Mi": 4096, "1048576Ki": 1024,
		"1G": 953, "500M": 476, "1073741824": 1024,
	}
	for in, want := range mem {
		got, err := kubeclient.ParseMemoryQuantity(in)
		if err != nil || got != want {
			t.Errorf("ParseMemoryQuantity(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "-5Mi", "huge"} {
		if _, err := kubeclient.ParseMemoryQuantity(bad); err == nil {
			t.Errorf("ParseMemoryQuantity(%q) should fail", bad)
		}
	}
	if kubeclient.FormatCPUMilli(3000) != "3" || kubeclient.FormatCPUMilli(2500) != "2500m" {
		t.Error("FormatCPUMilli wrong")
	}
	if kubeclient.FormatMemoryMB(4096) != "4096Mi" {
		t.Error("FormatMemoryMB wrong")
	}
}

func TestSelectorRoundTrip(t *testing.T) {
	sel := map[string]string{"b": "2", "a": "1"}
	s := kubeclient.FormatSelector(sel)
	if s != "a=1,b=2" {
		t.Errorf("FormatSelector = %q", s)
	}
	back, err := kubeclient.ParseSelector(s)
	if err != nil || back["a"] != "1" || back["b"] != "2" {
		t.Errorf("ParseSelector = %v, %v", back, err)
	}
	if _, err := kubeclient.ParseSelector("noequals"); err == nil {
		t.Error("bad selector should fail")
	}
	if got := kubeclient.FormatSelector(nil); got != "" {
		t.Errorf("empty selector = %q", got)
	}
}

func TestClientConfigValidation(t *testing.T) {
	if _, err := kubeclient.New(kubeclient.Config{}); err == nil {
		t.Error("empty BaseURL should fail")
	}
	c, err := kubeclient.New(kubeclient.Config{BaseURL: "http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	if c.Namespace() != "default" {
		t.Errorf("namespace = %q", c.Namespace())
	}
	// Unreachable server surfaces a transport error.
	if _, err := c.ListPods(context.Background(), nil); err == nil {
		t.Error("unreachable server should fail")
	}
}
