package campaign

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// DefaultHTTPTimeout bounds every remote store request. A shared
// warm store that stalls must degrade to recomputation, not hang the
// sweep behind it.
const DefaultHTTPTimeout = 10 * time.Second

// maxEntryBytes bounds how much of a remote response the client will
// read for one entry. Real entries are a few KB; anything past this
// is a misbehaving server and reads as corrupt.
const maxEntryBytes = 16 << 20

// maxDrainBytes bounds how much of an unread response body the client
// drains before closing. Draining lets the transport reuse the
// connection — but only small remainders are worth it (error replies,
// the tail past a decode). Past this, a misbehaving server is
// streaming garbage and the connection is cheaper to drop than to
// drain; under a sustained worker fleet an unbounded drain here
// stalls every slot behind one bad reply.
const maxDrainBytes = 256 << 10

// drainClose discards at most maxDrainBytes of body and closes it.
// A fully drained body keeps the underlying connection reusable; a
// truncated drain forces the transport to discard the connection,
// which is the right trade for oversized bodies.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, maxDrainBytes))
	body.Close()
}

// HTTPStore is the remote result-store client: it speaks the
// storehttp protocol (GET/PUT /units/<hash>) so distributed workers
// and CI can share one warm store. Every failure mode — network
// error, timeout, non-OK status, undecodable body — degrades to a
// miss (Get) or a dropped write (Put) and is tallied in the tier's
// error counters: a dead or flaky remote slows a run down to
// recomputation, it never breaks it.
type HTTPStore struct {
	base   string
	client *http.Client
	stats  counters
}

// HTTPStore implements Store, and Fallible so the resilience
// wrappers (RetryStore, BreakerStore) can classify its failures.
var _ Fallible = (*HTTPStore)(nil)

// NewHTTPStore builds a remote store client for the server at
// baseURL (e.g. "http://cache.internal:8080"). A nil client gets a
// default one with DefaultHTTPTimeout applied.
func NewHTTPStore(baseURL string, client *http.Client) *HTTPStore {
	if client == nil {
		client = &http.Client{Timeout: DefaultHTTPTimeout}
	}
	return &HTTPStore{base: strings.TrimRight(baseURL, "/"), client: client}
}

func (s *HTTPStore) url(hash string) string { return s.base + "/units/" + hash }

// Get fetches the entry from the remote store. 404 is a plain miss;
// any transport or server error counts in Errors and reads as a miss
// so the engine recomputes the unit.
func (s *HTTPStore) Get(hash string) (Metrics, bool) {
	m, ok, _ := s.GetE(hash)
	return m, ok
}

// GetE is Get with the degrading error surfaced and classified:
// transport failures, timeouts, truncated bodies, and 5xx replies are
// retryable; rejected requests (other 4xx/non-OK) and damaged entries
// (undecodable or oversize bodies) are ErrTerminal. A 404 is a plain
// miss — (nil, false, nil).
func (s *HTTPStore) GetE(hash string) (Metrics, bool, error) {
	resp, err := s.client.Get(s.url(hash))
	if err != nil {
		s.stats.errors.Add(1)
		return nil, false, fmt.Errorf("campaign: remote get: %w", err)
	}
	defer drainClose(resp.Body)
	switch {
	case resp.StatusCode == http.StatusNotFound:
		s.stats.misses.Add(1)
		return nil, false, nil
	case resp.StatusCode/100 == 5:
		s.stats.errors.Add(1)
		return nil, false, fmt.Errorf("campaign: remote get: server returned %s", resp.Status)
	case resp.StatusCode != http.StatusOK:
		s.stats.errors.Add(1)
		return nil, false, Terminal(fmt.Errorf("campaign: remote get: server returned %s", resp.Status))
	}
	buf, err := io.ReadAll(io.LimitReader(resp.Body, maxEntryBytes+1))
	if err != nil {
		s.stats.errors.Add(1)
		return nil, false, fmt.Errorf("campaign: remote get: %w", err)
	}
	// Length-check before parsing: an oversize body is a misbehaving
	// server, and feeding it to the decoder first would burn CPU on
	// (and possibly mis-classify) bytes already known to be invalid.
	if len(buf) > maxEntryBytes {
		s.stats.corrupt.Add(1)
		return nil, false, Terminal(fmt.Errorf("campaign: remote get: entry exceeds %d bytes", maxEntryBytes))
	}
	m, ok := DecodeEntry(buf)
	if !ok {
		s.stats.corrupt.Add(1)
		return nil, false, Terminal(fmt.Errorf("campaign: remote get: undecodable entry"))
	}
	s.stats.hits.Add(1)
	return m, true, nil
}

// Put uploads the entry. The returned error is informational — the
// engine treats a failed store write as non-fatal — but it is tallied
// so a dead remote shows up in the run's tier stats.
func (s *HTTPStore) Put(hash string, m Metrics) error {
	buf, err := EncodeEntry(m)
	if err != nil {
		s.stats.errors.Add(1)
		return Terminal(err)
	}
	req, err := http.NewRequest(http.MethodPut, s.url(hash), bytes.NewReader(buf))
	if err != nil {
		s.stats.errors.Add(1)
		return Terminal(fmt.Errorf("campaign: remote put: %w", err))
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := s.client.Do(req)
	if err != nil {
		s.stats.errors.Add(1)
		return fmt.Errorf("campaign: remote put: %w", err)
	}
	drainClose(resp.Body)
	if resp.StatusCode/100 != 2 {
		s.stats.errors.Add(1)
		err := fmt.Errorf("campaign: remote put: server returned %s", resp.Status)
		if resp.StatusCode/100 == 4 {
			// The server rejected this request (bad entry, bad hash):
			// resending the same bytes cannot succeed.
			return Terminal(err)
		}
		return err
	}
	return nil
}

// Stats returns the store's single tier of counters.
func (s *HTTPStore) Stats() []TierStats {
	return []TierStats{s.stats.snapshot("remote")}
}

// Close releases idle connections.
func (s *HTTPStore) Close() error {
	s.client.CloseIdleConnections()
	return nil
}
