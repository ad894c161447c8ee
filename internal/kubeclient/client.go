package kubeclient

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"time"
)

// Config describes how to reach the API server.
type Config struct {
	// BaseURL is the API server root, e.g. "https://10.0.0.1:6443"
	// or an httptest server URL.
	BaseURL string
	// Namespace scopes pod operations (default "default").
	Namespace string
	// BearerToken, when set, is sent as Authorization: Bearer.
	BearerToken string
	// HTTPClient overrides the transport (default http.DefaultClient;
	// real clusters need TLS configuration here).
	HTTPClient *http.Client
	// Timeout bounds non-watch requests (default 30 s).
	Timeout time.Duration
}

// Client is a minimal typed Kubernetes client.
type Client struct {
	cfg Config
}

// New validates the config and returns a client.
func New(cfg Config) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("kubeclient: BaseURL required")
	}
	if _, err := url.Parse(cfg.BaseURL); err != nil {
		return nil, fmt.Errorf("kubeclient: bad BaseURL: %w", err)
	}
	if cfg.Namespace == "" {
		cfg.Namespace = "default"
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = http.DefaultClient
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 30 * time.Second
	}
	return &Client{cfg: cfg}, nil
}

// Namespace returns the client's namespace.
func (c *Client) Namespace() string { return c.cfg.Namespace }

// apiError converts a non-2xx response into an error carrying the
// server's Status message.
func apiError(resp *http.Response) error {
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 16*1024))
	var st Status
	if json.Unmarshal(body, &st) == nil && st.Message != "" {
		return fmt.Errorf("kubeclient: %s (HTTP %d)", st.Message, resp.StatusCode)
	}
	return fmt.Errorf("kubeclient: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
}

func (c *Client) do(ctx context.Context, method, path string, query url.Values, in, out any) error {
	u := strings.TrimSuffix(c.cfg.BaseURL, "/") + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("kubeclient: marshal: %w", err)
		}
		body = bytes.NewReader(data)
	}
	ctx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, u, body)
	if err != nil {
		return fmt.Errorf("kubeclient: request: %w", err)
	}
	req.Header.Set("Accept", "application/json")
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.cfg.BearerToken != "" {
		req.Header.Set("Authorization", "Bearer "+c.cfg.BearerToken)
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return fmt.Errorf("kubeclient: %s %s: %w", method, path, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return apiError(resp)
	}
	defer resp.Body.Close()
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("kubeclient: decode %s: %w", path, err)
	}
	return nil
}

func (c *Client) podsPath() string {
	return "/api/v1/namespaces/" + url.PathEscape(c.cfg.Namespace) + "/pods"
}

// CreatePod submits a pod and returns the server's stored object.
func (c *Client) CreatePod(ctx context.Context, pod Pod) (Pod, error) {
	pod.APIVersion, pod.Kind = "v1", "Pod"
	if pod.Metadata.Namespace == "" {
		pod.Metadata.Namespace = c.cfg.Namespace
	}
	var out Pod
	err := c.do(ctx, http.MethodPost, c.podsPath(), nil, pod, &out)
	return out, err
}

// GetPod fetches one pod.
func (c *Client) GetPod(ctx context.Context, name string) (Pod, error) {
	var out Pod
	err := c.do(ctx, http.MethodGet, c.podsPath()+"/"+url.PathEscape(name), nil, nil, &out)
	return out, err
}

// DeletePod removes a pod.
func (c *Client) DeletePod(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, c.podsPath()+"/"+url.PathEscape(name), nil, nil, nil)
}

// ListPods lists pods matching the label selector (empty = all),
// sorted by name.
func (c *Client) ListPods(ctx context.Context, selector map[string]string) ([]Pod, error) {
	q := url.Values{}
	if sel := FormatSelector(selector); sel != "" {
		q.Set("labelSelector", sel)
	}
	var list PodList
	if err := c.do(ctx, http.MethodGet, c.podsPath(), q, nil, &list); err != nil {
		return nil, err
	}
	slices.SortFunc(list.Items, func(a, b Pod) int {
		return strings.Compare(a.Metadata.Name, b.Metadata.Name)
	})
	return list.Items, nil
}

// WatchPods opens a streaming watch for pods matching the selector.
// Events arrive on the returned channel until ctx is canceled or the
// server closes the stream, after which the channel closes.
func (c *Client) WatchPods(ctx context.Context, selector map[string]string) (<-chan PodEvent, error) {
	q := url.Values{}
	q.Set("watch", "true")
	if sel := FormatSelector(selector); sel != "" {
		q.Set("labelSelector", sel)
	}
	u := strings.TrimSuffix(c.cfg.BaseURL, "/") + c.podsPath() + "?" + q.Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, fmt.Errorf("kubeclient: watch request: %w", err)
	}
	req.Header.Set("Accept", "application/json")
	if c.cfg.BearerToken != "" {
		req.Header.Set("Authorization", "Bearer "+c.cfg.BearerToken)
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("kubeclient: watch: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	ch := make(chan PodEvent, 16)
	go func() {
		defer close(ch)
		defer resp.Body.Close()
		dec := json.NewDecoder(resp.Body)
		for {
			var ev PodEvent
			if err := dec.Decode(&ev); err != nil {
				return
			}
			select {
			case ch <- ev:
			case <-ctx.Done():
				return
			}
		}
	}()
	return ch, nil
}

// FormatSelector renders a label map as "k1=v1,k2=v2" with sorted
// keys.
func FormatSelector(sel map[string]string) string {
	if len(sel) == 0 {
		return ""
	}
	keys := make([]string, 0, len(sel))
	for k := range sel {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"="+sel[k])
	}
	return strings.Join(parts, ",")
}

// ParseSelector parses "k1=v1,k2=v2" into a label map.
func ParseSelector(s string) (map[string]string, error) {
	out := make(map[string]string)
	s = strings.TrimSpace(s)
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || k == "" {
			return nil, fmt.Errorf("kubeclient: bad selector term %q", part)
		}
		out[k] = v
	}
	return out, nil
}
