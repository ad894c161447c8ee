// Package kubetest provides an in-process fake Kubernetes API server
// implementing the surface kubeclient speaks — pod CRUD, node
// listing, and streaming label-selector watches — so the HTA operator
// and client are testable without a cluster.
package kubetest

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"hta/internal/kubeclient"
)

// Server is a fake API server backed by an in-memory store.
type Server struct {
	srv *httptest.Server

	mu       sync.Mutex
	pods     map[string]kubeclient.Pod // ns/name
	watchers map[int]*watcher
	nextUID  int
	nextW    int
	autoRun  time.Duration // auto-transition Pending→Running delay; 0 = manual
}

type watcher struct {
	ns       string
	selector map[string]string
	ch       chan kubeclient.PodEvent
	drop     chan struct{}
}

// NewServer starts the fake API server.
func NewServer() *Server {
	s := &Server{
		pods:     make(map[string]kubeclient.Pod),
		watchers: make(map[int]*watcher),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/namespaces/{ns}/pods", s.listOrWatchPods)
	mux.HandleFunc("POST /api/v1/namespaces/{ns}/pods", s.createPod)
	mux.HandleFunc("GET /api/v1/namespaces/{ns}/pods/{name}", s.getPod)
	mux.HandleFunc("DELETE /api/v1/namespaces/{ns}/pods/{name}", s.deletePod)
	s.srv = httptest.NewServer(mux)
	return s
}

// URL returns the server's base URL.
func (s *Server) URL() string { return s.srv.URL }

// Close shuts the server down and terminates all watches.
func (s *Server) Close() {
	s.srv.CloseClientConnections()
	s.srv.Close()
}

// DropWatches terminates every open watch stream without shutting the
// server down — an API-server restart from the watchers' point of
// view. Clients see their event channels close and must re-watch.
func (s *Server) DropWatches() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, wt := range s.watchers {
		close(wt.drop)
		delete(s.watchers, id)
	}
}

// AutoRun makes created pods transition Pending → Running after the
// delay, like a cluster whose scheduler and kubelet take that long.
func (s *Server) AutoRun(delay time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.autoRun = delay
}

// SetPodPhase transitions a pod's phase and broadcasts MODIFIED.
func (s *Server) SetPodPhase(ns, name, phase string) error {
	s.mu.Lock()
	key := ns + "/" + name
	pod, ok := s.pods[key]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("kubetest: pod %s not found", key)
	}
	pod.Status.Phase = phase
	if phase == kubeclient.PodRunning && pod.Status.StartTime == "" {
		pod.Status.StartTime = time.Now().UTC().Format(time.RFC3339)
	}
	s.pods[key] = pod
	s.broadcastLocked(kubeclient.WatchModified, pod)
	s.mu.Unlock()
	return nil
}

// Pod returns a stored pod.
func (s *Server) Pod(ns, name string) (kubeclient.Pod, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pods[ns+"/"+name]
	return p, ok
}

// PodCount returns the number of stored pods.
func (s *Server) PodCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pods)
}

// --- handlers ---

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeStatus(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, kubeclient.Status{Kind: "Status", Message: msg, Code: code})
}

func matches(pod kubeclient.Pod, sel map[string]string) bool {
	for k, v := range sel {
		if pod.Metadata.Labels[k] != v {
			return false
		}
	}
	return true
}

func (s *Server) listOrWatchPods(w http.ResponseWriter, r *http.Request) {
	ns := r.PathValue("ns")
	sel, err := kubeclient.ParseSelector(r.URL.Query().Get("labelSelector"))
	if err != nil {
		writeStatus(w, http.StatusBadRequest, err.Error())
		return
	}
	if r.URL.Query().Get("watch") == "true" {
		s.watchPods(w, r, ns, sel)
		return
	}
	s.mu.Lock()
	list := kubeclient.PodList{}
	for _, p := range s.pods {
		if p.Metadata.Namespace == ns && matches(p, sel) {
			list.Items = append(list.Items, p)
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) watchPods(w http.ResponseWriter, r *http.Request, ns string, sel map[string]string) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeStatus(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	wt := &watcher{ns: ns, selector: sel, ch: make(chan kubeclient.PodEvent, 64), drop: make(chan struct{})}
	s.mu.Lock()
	// Initial sync: existing pods arrive as ADDED, as a
	// resourceVersion=0 watch would deliver.
	for _, p := range s.pods {
		if p.Metadata.Namespace == ns && matches(p, sel) {
			wt.ch <- kubeclient.PodEvent{Type: kubeclient.WatchAdded, Pod: p}
		}
	}
	s.nextW++
	id := s.nextW
	s.watchers[id] = wt
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.watchers, id)
		s.mu.Unlock()
	}()

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	enc := json.NewEncoder(w)
	for {
		select {
		case <-r.Context().Done():
			return
		case <-wt.drop:
			return
		case ev := <-wt.ch:
			if err := enc.Encode(ev); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}

// broadcastLocked fans an event out to matching watchers; the caller
// holds s.mu.
func (s *Server) broadcastLocked(typ string, pod kubeclient.Pod) {
	for _, wt := range s.watchers {
		if pod.Metadata.Namespace != wt.ns || !matches(pod, wt.selector) {
			continue
		}
		select {
		case wt.ch <- kubeclient.PodEvent{Type: typ, Pod: pod}:
		default: // slow watcher: drop rather than block the store
		}
	}
}

func (s *Server) createPod(w http.ResponseWriter, r *http.Request) {
	ns := r.PathValue("ns")
	var pod kubeclient.Pod
	if err := json.NewDecoder(r.Body).Decode(&pod); err != nil {
		writeStatus(w, http.StatusBadRequest, "malformed pod: "+err.Error())
		return
	}
	if pod.Metadata.Name == "" {
		writeStatus(w, http.StatusUnprocessableEntity, "pod name required")
		return
	}
	if len(pod.Spec.Containers) == 0 {
		writeStatus(w, http.StatusUnprocessableEntity, "pod needs at least one container")
		return
	}
	pod.Metadata.Namespace = ns
	key := ns + "/" + pod.Metadata.Name
	s.mu.Lock()
	if _, dup := s.pods[key]; dup {
		s.mu.Unlock()
		writeStatus(w, http.StatusConflict, fmt.Sprintf("pods %q already exists", pod.Metadata.Name))
		return
	}
	s.nextUID++
	pod.APIVersion, pod.Kind = "v1", "Pod"
	pod.Metadata.UID = fmt.Sprintf("uid-%d", s.nextUID)
	pod.Metadata.CreationTimestamp = time.Now().UTC().Format(time.RFC3339)
	if pod.Status.Phase == "" {
		pod.Status.Phase = kubeclient.PodPending
	}
	s.pods[key] = pod
	s.broadcastLocked(kubeclient.WatchAdded, pod)
	autoRun := s.autoRun
	s.mu.Unlock()
	if autoRun > 0 {
		name := pod.Metadata.Name
		time.AfterFunc(autoRun, func() { _ = s.SetPodPhase(ns, name, kubeclient.PodRunning) })
	}
	writeJSON(w, http.StatusCreated, pod)
}

func (s *Server) getPod(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("ns") + "/" + r.PathValue("name")
	s.mu.Lock()
	pod, ok := s.pods[key]
	s.mu.Unlock()
	if !ok {
		writeStatus(w, http.StatusNotFound, fmt.Sprintf("pods %q not found", r.PathValue("name")))
		return
	}
	writeJSON(w, http.StatusOK, pod)
}

func (s *Server) deletePod(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("ns") + "/" + r.PathValue("name")
	s.mu.Lock()
	pod, ok := s.pods[key]
	if ok {
		delete(s.pods, key)
		s.broadcastLocked(kubeclient.WatchDeleted, pod)
	}
	s.mu.Unlock()
	if !ok {
		writeStatus(w, http.StatusNotFound, fmt.Sprintf("pods %q not found", r.PathValue("name")))
		return
	}
	writeJSON(w, http.StatusOK, kubeclient.Status{Kind: "Status", Message: "deleted", Code: 200})
}
