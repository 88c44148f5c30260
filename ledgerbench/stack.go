package main

// The serving stack under test, started in-process: a registry behind a
// server on a loopback listener, and a gateway on a second listener routing
// to it. Sessions are created and compressed through the gateway, exactly
// as a remote client would; the registry stays reachable in-process so the
// answer oracle can be built from the very set each session serves.

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"provabs/internal/abstree"
	"provabs/internal/durable"
	"provabs/internal/gateway"
	"provabs/internal/provenance"
	"provabs/internal/registry"
	"provabs/internal/server"
	"provabs/internal/session"
)

type stack struct {
	reg     *registry.Registry
	backend *httptest.Server
	gw      *gateway.Gateway
	front   *httptest.Server
	client  *http.Client
	fs      *syncFS // non-nil when the registry is durable
	dir     string  // durable root, removed on close
}

// startStack starts registry, server and gateway. A non-empty durableDir
// makes the registry durable, rooted there, with every fsync counted.
func startStack(durableDir string) (*stack, error) {
	st := &stack{reg: registry.New()}
	if durableDir != "" {
		st.fs = &syncFS{FS: durable.OSFS{}}
		st.dir = durableDir
		if err := st.reg.EnableDurability(durableDir, durable.Options{FS: st.fs}); err != nil {
			return nil, err
		}
	}
	quiet := log.New(io.Discard, "", 0)
	st.backend = httptest.NewServer(server.New(st.reg, server.WithLogger(quiet)).Handler())
	gw, err := gateway.New([]string{strings.TrimPrefix(st.backend.URL, "http://")}, gateway.Options{Logger: quiet})
	if err != nil {
		st.backend.Close()
		return nil, err
	}
	st.gw = gw
	st.front = httptest.NewServer(gw.Handler())
	st.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true}}
	return st, nil
}

func (st *stack) close() {
	st.client.CloseIdleConnections()
	st.front.Close()
	st.gw.Stop()
	st.backend.Close()
	if st.fs != nil {
		st.reg.Shutdown() //nolint:errcheck // the files are removed next
		os.RemoveAll(st.dir)
	} else {
		st.reg.CloseAll()
	}
}

// post sends one JSON request and returns the status and the whole body.
func (st *stack) post(url string, body []byte) (int, []byte, error) {
	resp, err := st.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// create makes a session through the gateway from an encoded provenance set
// with one abstraction tree.
func (st *stack) create(name string, set *provenance.Set, tree *abstree.Tree) error {
	var buf bytes.Buffer
	if err := provenance.Encode(&buf, set); err != nil {
		return err
	}
	body, err := json.Marshal(map[string]any{
		"name":           name,
		"provenance_b64": base64.StdEncoding.EncodeToString(buf.Bytes()),
		"trees":          []string{tree.String()},
	})
	if err != nil {
		return err
	}
	status, resp, err := st.post(st.front.URL+"/v1/sessions", body)
	if err != nil {
		return err
	}
	if status != http.StatusCreated {
		return fmt.Errorf("create %s: status %d: %s", name, status, resp)
	}
	return nil
}

// shape is the deterministic outcome of a compression: what a later run, in
// another process, must reproduce.
type shape struct {
	Monomials int      `json:"monomials"`
	Variables int      `json:"variables"`
	VVS       []string `json:"vvs"`
}

func (s shape) String() string {
	return fmt.Sprintf("%d monomials, %d variables, cut %v", s.Monomials, s.Variables, s.VVS)
}

func (s shape) equal(o shape) bool {
	return s.String() == o.String()
}

// compress abstracts a session through the gateway with the session's own
// tree and bound B.
func (st *stack) compress(name string, bound int) (shape, error) {
	body, _ := json.Marshal(map[string]any{"bound": bound})
	status, resp, err := st.post(st.front.URL+"/v1/sessions/"+name+"/compress", body)
	if err != nil {
		return shape{}, err
	}
	if status != http.StatusOK {
		return shape{}, fmt.Errorf("compress %s: status %d: %s", name, status, resp)
	}
	var sh shape
	err = json.Unmarshal(resp, &sh)
	return sh, err
}

// engine returns the in-process engine behind a session.
func (st *stack) engine(name string) (*session.Engine, error) {
	sess, err := st.reg.Get(name)
	if err != nil {
		return nil, err
	}
	return sess.Engine(), nil
}

// syncFS is the filesystem handed to the durable layer through
// durable.Options.FS: it counts and times every fsync, of files and of
// directories, from outside the layer.
type syncFS struct {
	durable.FS
	mu    sync.Mutex
	syncs []time.Duration
}

func (f *syncFS) record(d time.Duration) {
	f.mu.Lock()
	f.syncs = append(f.syncs, d)
	f.mu.Unlock()
}

// taken returns the fsync durations recorded so far and forgets them.
func (f *syncFS) taken() []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := f.syncs
	f.syncs = nil
	return out
}

func (f *syncFS) OpenFile(path string, flag int, perm os.FileMode) (durable.File, error) {
	file, err := f.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &syncFile{File: file, fs: f}, nil
}

func (f *syncFS) SyncDir(path string) error {
	start := time.Now()
	err := f.FS.SyncDir(path)
	f.record(time.Since(start))
	return err
}

type syncFile struct {
	durable.File
	fs *syncFS
}

func (s *syncFile) Sync() error {
	start := time.Now()
	err := s.File.Sync()
	s.fs.record(time.Since(start))
	return err
}
