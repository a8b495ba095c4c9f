package dispatch

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"strings"

	"clgp/internal/blob"
	"clgp/internal/freelist"
	"clgp/internal/telemetry"
)

// StoreServer is the http.Handler serving the object-store protocol over a
// root directory: the reference server `clgpsim store serve` runs and tests
// mount behind httptest. It is deliberately small — objects live in a
// blob.Dir (which validates keys and commits every object atomically), the
// ETag of an object is the SHA-256 of its bytes, and an upload whose body
// does not match its declared hash is rejected without committing anything,
// which is the property the whole resume-after-failure story leans on.
//
// It serves exactly the verbs the ObjectStore client uses: GET/HEAD/PUT/
// DELETE on ObjectPathPrefix+key, and GET ListPath?prefix=P returning
// matching keys one per line.
type StoreServer struct {
	objects blob.Dir
}

// NewStoreServer returns a server storing objects under root (created if
// missing).
func NewStoreServer(root string) (*StoreServer, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("dispatch: store root: %w", err)
	}
	return &StoreServer{objects: blob.Dir(root)}, nil
}

// ServeHTTP implements http.Handler.
func (s *StoreServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == ListPath:
		s.handleList(w, r)
	case strings.HasPrefix(r.URL.Path, ObjectPathPrefix):
		s.handleObject(w, r, strings.TrimPrefix(r.URL.Path, ObjectPathPrefix))
	default:
		http.NotFound(w, r)
	}
}

// DebugMux wraps the server in a mux that additionally exposes the
// telemetry surface of reg (/metrics, /debug/pprof, /debug/vars). The
// object protocol keeps the rest of the path space, so existing clients
// are unaffected.
func (s *StoreServer) DebugMux(reg *telemetry.Registry) *http.ServeMux {
	mux := telemetry.MetricsMux(reg)
	mux.Handle("/", s)
	return mux
}

func (s *StoreServer) handleObject(w http.ResponseWriter, r *http.Request, key string) {
	countServerRequest(r.Method)
	if err := blob.CheckKey(key); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodHead:
		// HEAD is the existence probe (ShardComplete): a stat, never a read
		// of a possibly large object to hash an ETag.
		ok, err := s.objects.Head(key)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if !ok {
			http.NotFound(w, r)
		}
	case http.MethodGet:
		data, err := s.objects.Get(key)
		if errors.Is(err, fs.ErrNotExist) {
			http.NotFound(w, r)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("ETag", `"`+hashOf(data)+`"`)
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", fmt.Sprint(len(data)))
		w.Write(data)
		mServerBytesOut.Add(uint64(len(data)))
		// blob.Dir.Get read the object into a freelist.Artifacts buffer,
		// and Write keeps no reference to data once it returns.
		freelist.Artifacts.Put(data)
	case http.MethodPut:
		// Read the whole body before touching disk: a connection cut
		// mid-upload fails here and commits nothing.
		data, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, fmt.Sprintf("reading body: %v", err), http.StatusBadRequest)
			return
		}
		mServerBytesIn.Add(uint64(len(data)))
		sum := hashOf(data)
		if want := r.Header.Get(ObjectHashHeader); want != "" && !strings.EqualFold(want, sum) {
			http.Error(w, fmt.Sprintf("integrity mismatch: body hashes to %s, %s says %s; object not committed",
				sum, ObjectHashHeader, want), http.StatusUnprocessableEntity)
			return
		}
		if err := s.objects.Put(key, data); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("ETag", `"`+sum+`"`)
		w.WriteHeader(http.StatusCreated)
	case http.MethodDelete:
		if err := s.objects.Delete(key); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *StoreServer) handleList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	keys, err := s.objects.List(r.URL.Query().Get("prefix"))
	if errors.Is(err, blob.ErrBadKey) {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, key := range keys {
		fmt.Fprintln(w, key)
	}
}
