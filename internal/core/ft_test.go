package core

import (
	"errors"
	"testing"

	"hamoffload/internal/simtime"
)

// TestRetriesStopAtMaxRetries: with every post failing transiently, an
// offload under MaxRetries N is re-posted exactly N times, N+1 posts in all,
// and fails with the last transient error.
func TestRetriesStopAtMaxRetries(t *testing.T) {
	for _, n := range []int{1, 3} {
		b := newResBackend(simtime.Microsecond)
		b.failAll = transientErr{}
		rt := resRuntime(b)
		rt.SetFaultTolerance(FaultTolerance{MaxRetries: n})
		_, err := Sync(rt, 1, fnResEcho.Bind(1))
		if !errors.As(err, new(transientErr)) {
			t.Fatalf("MaxRetries %d: err = %v, want the stub's transient failure", n, err)
		}
		if rt.Retries() != int64(n) || b.calls[1] != n+1 {
			t.Errorf("MaxRetries %d: %d retries and %d posts, want %d and %d", n, rt.Retries(), b.calls[1], n, n+1)
		}
	}
}

// TestOpenResponseRejectsForeignEnvelopes: only a response envelope with the
// request's own sequence number opens; a NACK of that request, a response
// to another request and a bare message are each ErrPayloadCorrupt.
func TestOpenResponseRejectsForeignEnvelopes(t *testing.T) {
	rt := resRuntime(newResBackend(simtime.Microsecond))
	pd := &pending{seq: 7}
	payload := []byte("result")
	if got, err := rt.openResponse(pd, sealMessage(envResponse, 7, payload)); err != nil || string(got) != "result" {
		t.Errorf("own response: %q, %v; want %q", got, err, payload)
	}
	for name, resp := range map[string][]byte{
		"NACK with the request's seq": sealMessage(envNack, 7, nil),
		"response with a stale seq":   sealMessage(envResponse, 6, payload),
		"bare message":                payload,
	} {
		if got, err := rt.openResponse(pd, resp); !errors.Is(err, ErrPayloadCorrupt) {
			t.Errorf("%s: %q, %v; want ErrPayloadCorrupt", name, got, err)
		}
	}
}

// sleepLog is a resBackend whose clock records every sleep.
type sleepLog struct {
	*resBackend
	sleeps []simtime.Duration
}

func (s *sleepLog) Clock() Clock { return s }

func (s *sleepLog) Sleep(d simtime.Duration) {
	s.sleeps = append(s.sleeps, d)
	s.resBackend.Sleep(d)
}

// TestBackoffSchedule: retry k of an offload sleeps BackoffBase<<(k-1),
// capped at BackoffMax; with a Seed each sleep adds a jitter of at most half
// its nominal length.
func TestBackoffSchedule(t *testing.T) {
	const us = simtime.Microsecond
	nominal := []simtime.Duration{1 * us, 2 * us, 4 * us, 6 * us, 6 * us}
	for _, seed := range []uint64{0, 42} {
		s := &sleepLog{resBackend: newResBackend(us)}
		s.failAll = transientErr{}
		rt := NewRuntime(s, "backoff-arch-host")
		rt.SetFaultTolerance(FaultTolerance{MaxRetries: len(nominal), BackoffBase: us, BackoffMax: 6 * us, Seed: seed})
		if _, err := Sync(rt, 1, fnResEcho.Bind(1)); err == nil {
			t.Fatal("offload against an always-failing backend must fail")
		}
		if len(s.sleeps) != len(nominal) {
			t.Fatalf("seed %d: slept %v, want one sleep per retry of %v", seed, s.sleeps, nominal)
		}
		jittered := false
		for k, d := range s.sleeps {
			want, most := nominal[k], nominal[k]+nominal[k]/2
			if seed == 0 {
				most = want
			}
			if d < want || d > most {
				t.Errorf("seed %d: retry %d slept %v, want %v plus at most %v of jitter", seed, k+1, d, want, want/2)
			}
			jittered = jittered || d != want
		}
		if seed != 0 && !jittered {
			t.Errorf("seed %d: no sleep of %v was jittered", seed, s.sleeps)
		}
	}
}
