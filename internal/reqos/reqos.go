// Package reqos implements the paper's baseline contention-mitigation
// system: ReQoS-style reactive napping (Tang et al., ASPLOS 2013).
//
// ReQoS protects a high-priority co-runner by throttling the low-priority
// host with naps of varying intensity — and nothing else. It cannot
// transform the host's code, so any cache pressure the host generates
// while awake is paid for entirely with sleep time. PC3D uses the same
// napping mechanism as its fallback, which is why the two systems coincide
// on hosts whose pressure hints cannot remove (Section V-C).
package reqos

import (
	"repro/internal/machine"
	"repro/internal/qos"
)

// Config configures the reactive controller (consumed by New).
type Config struct {
	// Host is the low-priority process to throttle. Required.
	Host *machine.Process
	// Source yields the co-runner's QoS. Required.
	Source qos.Source
	// Target is the co-runner QoS target (default 0.95).
	Target float64
}

// Fixed policy constants (tabulated in DESIGN §4).
const (
	// checkMs is the reaction period in milliseconds of simulated time; it
	// matches the QoS source's update rate (the flux monitor's period) so
	// each reaction sees a fresh estimate.
	checkMs = 400
	// gain scales the nap increase per unit of QoS deficit.
	gain = 1.0
	// stepDown is the nap relaxation step when QoS has headroom.
	stepDown = 0.02
	// headroom above target before relaxing.
	headroom = 0.02
)

// Controller reactively adjusts the host's nap intensity to keep the
// co-runner at its QoS target. It implements machine.Agent.
type Controller struct {
	cfg Config

	nextCheck   uint64
	adjustments int
}

// New builds a controller throttling cfg.Host on QoS read from cfg.Source.
func New(cfg Config) *Controller {
	if cfg.Target == 0 {
		cfg.Target = 0.95
	}
	return &Controller{cfg: cfg}
}

// Tick applies one reactive step per check period.
func (c *Controller) Tick(m *machine.Machine) {
	now := m.Now()
	if now < c.nextCheck {
		return
	}
	c.nextCheck = now + checkMs*uint64(m.Config().FreqHz/1000)
	q, ok := c.cfg.Source.QoS()
	if !ok {
		return
	}
	host, target := c.cfg.Host, c.cfg.Target
	nap := host.NapIntensity()
	switch {
	case q < target:
		deficit := target - q
		host.SetNapIntensity(nap + deficit*gain)
		c.adjustments++
	case q > target+headroom && nap > 0:
		step := stepDown
		if q >= 0.99 {
			// Saturated QoS gives no gradient; relax aggressively to
			// rediscover the constraint (load may have dropped away).
			step *= 8
		}
		host.SetNapIntensity(nap - step)
		c.adjustments++
	}
}

// Adjustments counts nap changes made.
func (c *Controller) Adjustments() int { return c.adjustments }
