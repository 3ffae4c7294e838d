package contend

import "fmt"

// BreakerState is the migration circuit breaker's position.
type BreakerState int

// Breaker states. The zero value is closed (migration allowed).
const (
	// BreakerClosed: moves flow normally.
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen: the cooldown elapsed; exactly one probe move is
	// allowed, and its outcome decides between re-arming and re-opening.
	BreakerHalfOpen
	// BreakerOpen: migration is suspended for the cooldown.
	BreakerOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	}
	return fmt.Sprintf("breaker(%d)", int(s))
}

// BreakerConfig tunes the migration circuit breaker (zero values take
// defaults).
type BreakerConfig struct {
	// FailureThreshold is how many consecutive failed moves trip the
	// breaker open (default 3).
	FailureThreshold int
	// CooldownEpochs is how many decision epochs the breaker stays open
	// before probing half-open (default 8).
	CooldownEpochs int
}

// WithDefaults fills defaulted fields.
func (c BreakerConfig) WithDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.CooldownEpochs <= 0 {
		c.CooldownEpochs = 8
	}
	return c
}

// Breaker is the deterministic circuit breaker guarding the migration
// control loop: K consecutive failed moves, or a decision epoch with
// corrupted detector samples, trip it open; while open the planner's
// budget is zero, so the fleet degrades to un-migrated operation instead
// of thrashing against a broken move path. After the cooldown it goes
// half-open and admits a single probe move whose outcome re-arms (closed)
// or re-trips (open) it. A pure state machine over observed move outcomes:
// no clocks, no randomness.
type Breaker struct {
	cfg        BreakerConfig
	state      BreakerState
	consecFail int
	cooldown   int
	trips      int
}

// NewBreaker builds a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.WithDefaults()}
}

// State returns the breaker's position.
func (b *Breaker) State() BreakerState { return b.state }

// Trips counts how many times the breaker has tripped open.
func (b *Breaker) Trips() int { return b.trips }

// Cooldown is how many more epochs the breaker stays open (0 unless open).
func (b *Breaker) Cooldown() int { return b.cooldown }

// BeginEpoch advances the breaker one decision epoch: an open breaker
// counts down its cooldown and goes half-open when it expires. Call once
// per epoch, before Budget.
func (b *Breaker) BeginEpoch() {
	if b.state != BreakerOpen {
		return
	}
	if b.cooldown > 0 {
		b.cooldown--
	}
	if b.cooldown == 0 {
		b.state = BreakerHalfOpen
	}
}

// Budget clamps the planner's per-epoch move budget to what the breaker
// admits: the full budget closed, a single probe half-open, nothing open.
func (b *Breaker) Budget(budget int) int {
	switch b.state {
	case BreakerOpen:
		return 0
	case BreakerHalfOpen:
		if budget > 1 {
			return 1
		}
	}
	return budget
}

// RecordSuccess reports a move that landed. A half-open probe success
// re-arms the breaker; any success clears the consecutive-failure run.
func (b *Breaker) RecordSuccess() {
	b.consecFail = 0
	if b.state == BreakerHalfOpen {
		b.state = BreakerClosed
	}
}

// RecordFailure reports a failed move (detach fault or rollback). The
// half-open probe failing re-trips immediately; in the closed state,
// FailureThreshold consecutive failures trip the breaker open.
func (b *Breaker) RecordFailure() {
	if b.state == BreakerHalfOpen {
		b.trip()
		return
	}
	b.consecFail++
	if b.state == BreakerClosed && b.consecFail >= b.cfg.FailureThreshold {
		b.trip()
	}
}

// TripCorrupt trips the breaker open from any state: an epoch with
// corrupted detector samples means the decisions themselves can't be
// trusted, so migration suspends without waiting for moves to fail.
func (b *Breaker) TripCorrupt() {
	if b.state == BreakerOpen {
		// Already open: re-arm the full cooldown, but it's not a new trip.
		b.cooldown = b.cfg.CooldownEpochs
		return
	}
	b.trip()
}

func (b *Breaker) trip() {
	b.state = BreakerOpen
	b.cooldown = b.cfg.CooldownEpochs
	b.trips++
	b.consecFail = 0
}
