package fleet

import (
	"math"

	"repro/internal/contend"
	"repro/internal/loadgen"
	"repro/internal/machine"
	"repro/internal/sampling"
	"repro/internal/telemetry"
)

// gatedAgent wraps a batch-scoped agent so a live migration can switch it
// off: machine agent lists are append-only, so evicting an instance
// disables its samplers, monitors and policy in place rather than
// removing them. While on, the wrapper is transparent.
type gatedAgent struct {
	a   machine.Agent
	off bool
}

func (g *gatedAgent) Tick(m *machine.Machine) {
	if !g.off {
		g.a.Tick(m)
	}
}

// appSampler ties a PC sampler to the app it profiles.
type appSampler struct {
	app string
	smp *sampling.PCSampler
}

// serverSim is one server's in-flight simulation, advanced stepwise
// (advanceTo, then finish) so the fleet's control loop can stop every
// server at a barrier, inspect counters, and hand batch instances off
// between servers; a run with no barriers is one finish() call. All
// methods are single-goroutine per sim; the only shared state
// (calibration) is immutable during the run.
type serverSim struct {
	f    *Fleet
	idx  int
	reg  *telemetry.Registry
	m    *machine.Machine
	freq float64
	ws   *machine.Process
	gen  *loadgen.Generator

	samplers []appSampler

	host    *machine.Process
	hostApp string
	// stackCfg is everything about a batch instance's monitor + policy
	// stack that is fixed per server (fault hooks included; nil without
	// chaos); attachBatch adds the Host. stack is the live instance's.
	stackCfg StackConfig
	stack    *Stack
	// gates are the live batch instance's agents; detachBatch switches
	// them off.
	gates []*gatedAgent

	// pending are future batch arrivals (chaos re-placements and migration
	// landings), kept sorted by time.
	pending []arrival
	// stop is when this server halts (crash or horizon).
	stop float64

	res     ServerResult
	snapped bool
	ws0, h0 machine.Counters
	off0    uint64
	// utilNorm banks solo-normalized batch work (branches / solo BPS)
	// measured so far, so utilization survives a mid-window migration.
	utilNorm float64

	// hostInstsDone banks the instructions of departed batch instances, so
	// a reading's hostInsts stays cumulative across migrations.
	hostInstsDone uint64
	// prev and cur are the last two decision-barrier readings; the
	// detector, the SLO observer and the auditor difference them.
	prev, cur reading
}

// reading is one server's cumulative counters at a barrier.
type reading struct {
	now uint64 // machine clock, cycles
	ws  machine.Counters
	// offered is the load generator's offered requests (0 when saturated);
	// llc sums LLC misses over every core; hostInsts counts batch
	// instructions, departed instances included.
	offered, llc, hostInsts uint64
}

// read shifts cur to prev and takes a fresh reading.
func (s *serverSim) read() {
	r := reading{now: s.m.Now(), ws: s.ws.Counters(), hostInsts: s.hostInstsDone}
	if s.gen != nil {
		r.offered = s.gen.Offered()
	}
	for c := 0; c < s.m.Config().Cores; c++ {
		r.llc += s.m.Hierarchy().CoreStats(c).LLCMisses
	}
	if s.host != nil {
		r.hostInsts += s.host.Counters().Insts
	}
	s.prev, s.cur = s.cur, r
}

// up reports whether the server is up at barrier time t. A server that
// never crashes stays up at the horizon itself.
func (s *serverSim) up(t float64) bool { return !s.res.Crashed || t < s.stop }

// free reports whether the server can take a batch arrival at t: alive
// then, with no instance hosted or inbound.
func (s *serverSim) free(t float64) bool {
	return t < s.stop && s.host == nil && len(s.pending) == 0
}

// firstFree is the lowest-index server other than not that is free at t,
// or -1.
func firstFree(sims []*serverSim, t float64, not int) int {
	for j, s := range sims {
		if j != not && s.free(t) {
			return j
		}
	}
	return -1
}

// newServerSim wires one server: webservice on core 0 (gated behind the
// offered-load trace when present), the placed batch instance (if any) on
// core 1, the protean runtime on core 2. crashAt is when the whole server
// fails (+Inf = never).
func newServerSim(f *Fleet, idx int, app string, crashAt float64) (*serverSim, error) {
	cfg := f.cfg
	reg := telemetry.New(telemetry.Config{})
	f.serverTel[idx] = reg
	m := machine.New(machine.Config{Cores: 4, Seed: serverSeed(cfg.Seed, idx), Engine: cfg.Engine, Telemetry: reg})
	s := &serverSim{
		f: f, idx: idx, reg: reg, m: m, freq: m.Config().FreqHz,
		stop: math.Min(crashAt, cfg.horizon()),
	}
	s.res = ServerResult{Index: idx, App: app, Load: 1, Availability: 1}
	s.res.Crashed = !math.IsInf(crashAt, 1)

	wsOpts := machine.ProcessConfig{Restart: true}
	tr := f.trace(idx)
	if tr != nil {
		wsOpts = machine.ProcessConfig{Gated: true}
	}
	ws, err := m.Attach(0, f.cal.plain[cfg.Webservice], wsOpts)
	if err != nil {
		return nil, err
	}
	s.ws = ws
	if tr != nil {
		s.gen = loadgen.NewGenerator(ws, tr, f.cal.wsPeakQPS)
		m.AddAgent(s.gen)
	}

	// The fleet keeps its own PC samplers (independent of the protean
	// runtime's) so every server contributes block-granular deep profiles,
	// whatever the mitigation system. Sampling only reads process state.
	wsSmp := sampling.NewPCSampler(ws, m.Config().QuantumCycles)
	m.AddAgent(wsSmp)
	s.samplers = []appSampler{{cfg.Webservice, wsSmp}}
	if f.live != nil {
		m.AddAgent(&livePublisher{
			live: f.live, idx: idx, reg: reg, prof: s.profSnapshot,
			step: publishEveryQuanta * m.Config().QuantumCycles,
		})
	}

	s.stackCfg = StackConfig{
		Machine: m, Ext: ws, Gen: s.gen, ExtSoloIPS: f.cal.wsSoloIPS,
		System: cfg.System, Target: cfg.Target, MaxSites: cfg.MaxSites,
		Telemetry: reg, Add: s.gate,
	}
	if cfg.Chaos.Enabled() {
		s.stackCfg.CompileFault = cfg.Chaos.CompileFault(idx)
		s.stackCfg.RuntimeCrash = cfg.Chaos.RuntimeCrashFn(idx, s.freq, m.Config().QuantumCycles)
		s.stackCfg.Dropout = cfg.Chaos.DropoutFn(idx, s.freq)
		s.stackCfg.DropNaN = cfg.Chaos.QoSDropoutNaN
	}

	if app != "" {
		if err := s.attachBatch(app); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// profSnapshot merges the samplers' lifetime deep profiles per app.
func (s *serverSim) profSnapshot() map[string]*sampling.DeepProfile {
	out := make(map[string]*sampling.DeepProfile, len(s.samplers))
	for _, as := range s.samplers {
		d := as.smp.DeepLifetime()
		if p := out[as.app]; p != nil {
			p.Merge(d)
		} else {
			out[as.app] = d
		}
	}
	return out
}

// gate registers a batch-scoped agent behind an off switch.
func (s *serverSim) gate(a machine.Agent) {
	g := &gatedAgent{a: a}
	s.gates = append(s.gates, g)
	s.m.AddAgent(g)
}

// attachBatch wires a batch instance plus its QoS monitor and mitigation
// policy; called at t=0 for the placed instance and again at arrival
// events (only between machine quanta).
func (s *serverSim) attachBatch(a string) error {
	m := s.m
	hb := s.f.cal.plain[a]
	if s.f.cfg.System == SystemPC3D {
		hb = s.f.cal.protean[a]
	}
	h, err := m.Attach(1, hb, machine.ProcessConfig{Restart: true})
	if err != nil {
		return err
	}
	s.host, s.hostApp = h, a
	hostSmp := sampling.NewPCSampler(h, m.Config().QuantumCycles)
	s.gate(hostSmp)
	s.samplers = append(s.samplers, appSampler{a, hostSmp})
	sc := s.stackCfg
	sc.Host = h
	s.stack, err = AttachStack(sc)
	return err
}

// detachInstance releases the live batch instance: it banks the
// utilization and instruction counts measured so far, closes the policy
// session, gates every instance-scoped agent off, and frees core 1. The
// webservice never stops. Returns the released app ("" if none). Shared by
// live migration (detachBatch) and the scheduler's re-placement of
// instances off crashed servers, which must not count as a migration.
func (s *serverSim) detachInstance() string {
	if s.host == nil {
		return ""
	}
	app := s.hostApp
	if s.snapped {
		hd := s.host.Counters().Sub(s.h0)
		s.utilNorm += float64(hd.Branches) / s.f.cal.soloBPS[app]
	}
	s.hostInstsDone += s.host.Counters().Insts
	s.stack.Close()
	s.stack = nil
	for _, g := range s.gates {
		g.off = true
	}
	s.gates = nil
	s.m.Detach(1)
	s.host, s.hostApp = nil, ""
	s.h0 = machine.Counters{}
	return app
}

// detachBatch evicts the live batch instance for migration.
func (s *serverSim) detachBatch() string {
	app := s.detachInstance()
	if app != "" {
		s.res.MigratedOut++
	}
	return app
}

// scheduleArrival queues a future batch landing, keeping pending sorted
// by (time, source index).
func (s *serverSim) scheduleArrival(ar arrival) {
	i := len(s.pending)
	for i > 0 && s.pending[i-1].AtSeconds > ar.AtSeconds {
		i--
	}
	s.pending = append(s.pending, arrival{})
	copy(s.pending[i+1:], s.pending[i:])
	s.pending[i] = ar
}

// runUntil advances the machine to tSeconds (whole quanta; no-op when
// already there or past).
func (s *serverSim) runUntil(tSeconds float64) {
	target := uint64(tSeconds * s.freq)
	if target <= s.m.Now() {
		return
	}
	if quanta := int((target - s.m.Now()) / s.m.Config().QuantumCycles); quanta > 0 {
		s.m.RunQuanta(quanta)
	}
}

// maybeSnapshot takes the measurement-window baseline once the timeline
// reaches the settle boundary (and the server survives into the window).
func (s *serverSim) maybeSnapshot(at float64) {
	cfg := s.f.cfg
	if s.snapped || s.stop <= cfg.SettleSeconds || at < cfg.SettleSeconds {
		return
	}
	s.runUntil(cfg.SettleSeconds)
	s.ws0 = s.ws.Counters()
	if s.host != nil {
		s.h0 = s.host.Counters()
	}
	if s.gen != nil {
		s.off0 = s.gen.Offered()
	}
	s.snapped = true
}

// advanceTo simulates up to tSeconds (clamped to the server's stop),
// processing due arrivals and the measurement snapshot on the way. The
// control loop calls it once per barrier and finish() once more with the
// horizon — the segment boundaries change nothing about what the machine
// computes.
func (s *serverSim) advanceTo(tSeconds float64) error {
	t := math.Min(tSeconds, s.stop)
	for len(s.pending) > 0 {
		ar := s.pending[0]
		if ar.AtSeconds >= s.stop || ar.AtSeconds > t {
			break
		}
		s.pending = s.pending[1:]
		s.maybeSnapshot(ar.AtSeconds)
		s.runUntil(ar.AtSeconds)
		if s.host == nil {
			if err := s.attachBatch(ar.App); err != nil {
				return err
			}
			s.res.App = ar.App
			if ar.migrated {
				s.res.MigratedIn++
				s.reg.Counter("contend", "migrations_in_total", "live-migrated batch instances landed on this server").Inc()
				s.reg.Emit(telemetry.Event{At: s.m.Now(), Kind: telemetry.EvMigration, Func: ar.App, Value: float64(ar.from), Detail: "in"})
			} else {
				s.res.Absorbed++
				s.reg.Counter("fleet", "replacements_absorbed_total", "re-placed batch instances absorbed after another server's crash").Inc()
				s.reg.Emit(telemetry.Event{At: s.m.Now(), Kind: telemetry.EvReplacement, Func: ar.App})
			}
		}
	}
	s.maybeSnapshot(t)
	s.runUntil(t)
	return nil
}

// contendSample derives the contention signals between the last two
// readings: webservice CPI over active cycles, server-wide MPKI
// (webservice + batch instructions, banked across migrations), LLC miss
// bandwidth, and offered load. A server that made no progress (crashed)
// or retired no webservice instructions yields an invalid sample.
func (s *serverSim) contendSample() contend.Sample {
	prev, cur := &s.prev, &s.cur
	dt := float64(cur.now)/s.freq - float64(prev.now)/s.freq
	dws := cur.ws.Sub(prev.ws)
	if dt <= 0 || dws.Insts == 0 {
		return contend.Sample{}
	}
	dllc := cur.llc - prev.llc
	active := dws.Cycles - dws.NapCycles - dws.SleepCycles - dws.StolenCycles - dws.IdleCycles
	util := 1.0
	if s.gen != nil {
		util = s.gen.CurrentLoad(s.m)
	}
	return contend.Sample{
		CPI:      float64(active) / float64(dws.Insts),
		MPKI:     1000 * float64(dllc) / float64(dws.Insts+cur.hostInsts-prev.hostInsts),
		MissRate: float64(dllc) / dt,
		Util:     util,
		Valid:    true,
	}
}

// finish drains the timeline to the horizon, computes the server's
// measured result, and releases the policy session.
func (s *serverSim) finish() (ServerResult, error) {
	cfg := s.f.cfg
	if err := s.advanceTo(cfg.horizon()); err != nil {
		return ServerResult{}, err
	}
	if s.stack != nil {
		s.stack.Close()
	}
	res := &s.res
	// A crash inside the measurement window scales delivered QoS by the
	// up fraction; a crash before it zeroes the measurement entirely.
	upSeconds := math.Max(0, s.stop-cfg.SettleSeconds)
	res.Availability = math.Min(1, upSeconds/cfg.MeasureSeconds)
	if s.snapped {
		wsd := s.ws.Counters().Sub(s.ws0)
		if s.gen != nil {
			offered := s.gen.Offered() - s.off0
			served := wsd.Completions
			res.Load = float64(offered) / cfg.MeasureSeconds / s.f.cal.wsPeakQPS
			if offered == 0 {
				res.QoS = res.Availability
			} else {
				res.QoS = math.Min(1, float64(served)/float64(offered)) * res.Availability
			}
		} else {
			// Insts stop at the crash, so the solo-normalized rate already
			// reflects the down time.
			res.QoS = float64(wsd.Insts) / cfg.MeasureSeconds / s.f.cal.wsSoloIPS
		}
		if s.host != nil {
			hd := s.host.Counters().Sub(s.h0)
			s.utilNorm += float64(hd.Branches) / s.f.cal.soloBPS[s.hostApp]
		}
		res.Utilization = s.utilNorm / cfg.MeasureSeconds
	} else {
		res.QoS, res.Load = 0, 0
	}
	if res.Crashed {
		s.reg.Counter("fleet", "server_crashes_total", "whole-server failures").Inc()
		s.reg.Emit(telemetry.Event{At: s.m.Now(), Kind: telemetry.EvServerCrash})
	}
	s.reg.Gauge("fleet", "availability_sum", "sum of per-server up fractions (divide by server count for the mean)").Set(res.Availability)
	// A surviving server is fault-affected when any failure touched it; the
	// per-event counts live on the registry.
	res.Faulted = !res.Crashed && (res.Absorbed > 0 ||
		s.reg.CounterValue("supervise", "reaps_total") > 0 ||
		s.reg.CounterValue("pc3d", "compile_failures_total") > 0 ||
		s.reg.CounterValue("pc3d", "sensor_dropouts_total") > 0)
	s.f.serverProf[s.idx] = s.profSnapshot()
	if s.f.live != nil {
		// Final deposit so post-run scrapes see the completed server.
		s.f.live.publish(s.idx, s.reg.Clone(), s.profSnapshot())
	}
	return *res, nil
}
