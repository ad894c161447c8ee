package wire

import (
	"time"
)

// RunOptions tunes RunWorker's self-healing connection loop.
type RunOptions struct {
	// ReconnectWindow keeps retrying the master for this long after a
	// connect failure or lost connection, measured from the last
	// healthy moment (0 = exit on the first failure).
	ReconnectWindow time.Duration
	// Backoff paces the retries (default NewBackoff(1s, 30s)).
	Backoff *Backoff
	// Logf receives progress lines (default: silent).
	Logf func(format string, args ...any)
	// Sleep is the delay function, injectable for tests (default
	// time.Sleep).
	Sleep func(time.Duration)
	// Now is the clock, injectable for tests (default time.Now).
	Now func() time.Time
}

func (o RunOptions) withDefaults() RunOptions {
	if o.Backoff == nil {
		o.Backoff = NewBackoff(time.Second, 30*time.Second)
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// RunWorker runs a worker against the master at addr until it drains
// cleanly (returns nil) or the reconnect window expires (returns the
// last connection error). A master restart or transient partition
// must not kill the worker fleet, so lost connections are retried
// with paced backoff; in-flight commands keep executing across the
// gap and are reported to the master on reconnect, which rescues the
// attempts it still wants.
//
// The backoff resets only after a *successful handshake* — the
// master's register_ack — never on a successful dial alone. A
// crash-looping master whose listener accepts and immediately dies
// would otherwise reset the sequence on every probe, hammering it
// with base-interval retries exactly when it needs room to recover.
func RunWorker(addr string, cfg WorkerConfig, opts RunOptions) error {
	w, err := NewWorker(cfg)
	if err != nil {
		return err
	}
	// Giving up on the master must not leave commands running unowned.
	defer w.Close()
	opts = opts.withDefaults()
	lastHealthy := opts.Now()
	for {
		if err := w.Connect(addr); err != nil {
			if opts.ReconnectWindow <= 0 || opts.Now().Sub(lastHealthy) > opts.ReconnectWindow {
				return err
			}
			d := opts.Backoff.Next()
			opts.Logf("worker %s: connect %s failed (%v); retrying in %v",
				cfg.ID, addr, err, d.Round(time.Millisecond))
			opts.Sleep(d)
			continue
		}
		opts.Backoff.Reset() // handshake acked: the master is really back
		opts.Logf("worker %s connected to %s", cfg.ID, addr)
		err := w.Wait()
		lastHealthy = opts.Now()
		if err == nil {
			return nil // clean drain
		}
		if opts.ReconnectWindow <= 0 {
			return err
		}
		d := opts.Backoff.Next()
		opts.Logf("worker %s: connection lost (%v); reconnecting in %v",
			cfg.ID, err, d.Round(time.Millisecond))
		opts.Sleep(d)
	}
}
