package dispatch

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync"
	"time"

	"clgp/internal/freelist"
)

// The object-store wire protocol: plain HTTP with content-addressed
// integrity. Every object is a single opaque blob under a key; an object's
// ETag is the lowercase hex SHA-256 of its bytes. Uploads carry the same
// hash in ObjectHashHeader and the server refuses to commit a body that
// does not match it, so a connection cut mid-upload can never leave a
// half-written object that resume would mistake for a completed shard.
const (
	// ObjectPathPrefix is the URL prefix objects are served under
	// ("/v1/o/<key>").
	ObjectPathPrefix = "/v1/o/"
	// ListPath is the key-listing endpoint ("/v1/list?prefix=P", one key per
	// line).
	ListPath = "/v1/list"
	// ObjectHashHeader carries the client-computed SHA-256 of an upload; the
	// server verifies the received body against it before committing.
	ObjectHashHeader = "X-Content-Sha256"
)

// hashOf returns the protocol's content hash of data (lowercase hex SHA-256).
func hashOf(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// ObjectStore is the HTTP client side of the object-store protocol: the
// manifest, shard results, span logs and snapshots live as blobs behind a
// base URL instead of a shared filesystem, so workers on any host that can
// reach the URL can join a sweep. Methods are safe for concurrent use.
type ObjectStore struct {
	sweep
}

// NewObjectStore returns a client for the object store at baseURL.
func NewObjectStore(baseURL string) *ObjectStore {
	return &ObjectStore{sweep: sweep{objectClient{
		base: strings.TrimRight(baseURL, "/"),
		// A generous bound on one object transfer over a slow link.
		client: &http.Client{Timeout: 5 * time.Minute},
	}}}
}

// Location implements Store: the base URL.
func (s *ObjectStore) Location() string { return s.b.(objectClient).base }

// objectClient is the byte-object backend over HTTP: the five verbs against a
// StoreServer, with every transfer checked against its SHA-256.
type objectClient struct {
	base   string
	client *http.Client
}

func (c objectClient) url(key string) string { return c.base + ObjectPathPrefix + key }

// Put uploads one object with its content hash; the server commits it
// atomically or not at all. Put keeps no reference to data once it returns:
// a transport may still read or close a request body on another goroutine
// after Client.Do has returned (after an early response or a transport
// error, say), so Put waits until the transport has closed every body it
// was given.
func (c objectClient) Put(key string, data []byte) error {
	start := time.Now()
	defer func() { observeStorePut(len(data), time.Since(start)) }()
	req, err := http.NewRequest(http.MethodPut, c.url(key), nil)
	if err != nil {
		return fmt.Errorf("dispatch: store put %s: %w", key, err)
	}
	if len(data) > 0 {
		var bodies sync.WaitGroup
		defer bodies.Wait()
		body := func() io.ReadCloser {
			bodies.Add(1)
			return &putBody{Reader: bytes.NewReader(data), done: bodies.Done}
		}
		req.Body = body()
		req.GetBody = func() (io.ReadCloser, error) { return body(), nil }
		req.ContentLength = int64(len(data))
	}
	req.Header.Set(ObjectHashHeader, hashOf(data))
	resp, err := c.client.Do(req)
	if err != nil {
		return fmt.Errorf("dispatch: store put %s: %w", key, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("dispatch: store put %s: %s: %s", key, resp.Status, strings.TrimSpace(string(body)))
	}
	return nil
}

// putBody is one request body of a Put; its first Close reports that the
// transport is done with it.
type putBody struct {
	*bytes.Reader
	once sync.Once
	done func()
}

func (b *putBody) Close() error {
	b.once.Do(b.done)
	return nil
}

// Get downloads one object and verifies its bytes against the server's
// ETag, so truncated or corrupted transfers surface here instead of as
// garbage results downstream. A missing object returns an error wrapping
// os.ErrNotExist. Like blob.Dir.Get, it reads a body of known length into a
// buffer from freelist.Artifacts, which a warm-state restore hands back.
func (c objectClient) Get(key string) (data []byte, err error) {
	start := time.Now()
	defer func() { observeStoreGet(len(data), time.Since(start)) }()
	resp, err := c.client.Get(c.url(key))
	if err != nil {
		return nil, fmt.Errorf("dispatch: store get %s: %w", key, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, fmt.Errorf("dispatch: store get %s: %w", key, os.ErrNotExist)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("dispatch: store get %s: %s: %s", key, resp.Status, strings.TrimSpace(string(body)))
	}
	if n := resp.ContentLength; n >= 0 {
		data = freelist.Artifacts.Get(int(n))[:n]
		_, err = io.ReadFull(resp.Body, data)
	} else {
		data, err = io.ReadAll(resp.Body)
	}
	if err != nil {
		freelist.Artifacts.Put(data)
		return nil, fmt.Errorf("dispatch: store get %s: %w", key, err)
	}
	if etag, sum := strings.Trim(resp.Header.Get("ETag"), `"`), hashOf(data); etag != "" && etag != sum {
		freelist.Artifacts.Put(data)
		return nil, fmt.Errorf("dispatch: store get %s: body does not match ETag %s (got %d bytes hashing to %s)",
			key, etag, len(data), sum)
	}
	return data, nil
}

// Head reports whether an object exists. Only a definitive 404 means
// absent; transport failures and server errors are reported as errors so
// callers never mistake "could not check" for "not there".
func (c objectClient) Head(key string) (bool, error) {
	resp, err := c.client.Head(c.url(key))
	if err != nil {
		return false, fmt.Errorf("dispatch: store head %s: %w", key, err)
	}
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return true, nil
	case http.StatusNotFound:
		return false, nil
	default:
		return false, fmt.Errorf("dispatch: store head %s: %s", key, resp.Status)
	}
}

// Delete removes one object (absent objects are not an error).
func (c objectClient) Delete(key string) error {
	req, err := http.NewRequest(http.MethodDelete, c.url(key), nil)
	if err != nil {
		return fmt.Errorf("dispatch: store delete %s: %w", key, err)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return fmt.Errorf("dispatch: store delete %s: %w", key, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusNotFound {
		return fmt.Errorf("dispatch: store delete %s: %s", key, resp.Status)
	}
	return nil
}

// List returns the keys under a prefix.
func (c objectClient) List(prefix string) ([]string, error) {
	resp, err := c.client.Get(c.base + ListPath + "?prefix=" + url.QueryEscape(prefix))
	if err != nil {
		return nil, fmt.Errorf("dispatch: store list %s: %w", prefix, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("dispatch: store list %s: %s", prefix, resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("dispatch: store list %s: %w", prefix, err)
	}
	var keys []string
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			keys = append(keys, line)
		}
	}
	return keys, nil
}
