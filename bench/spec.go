package main

import "time"

// metricDef declares one reported metric; BENCHMARK.json at the repo
// root lists the same names, units and bounds (spec_test.go holds the
// two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	From   source  // per-layer only: where the traced run takes it from
}

// source says which part of a traced run yields a per-layer metric.
type source int

const (
	isolated     source = iota // timed on its own or in a traced replay: the same on every workload
	fromServe                  // the serve child and the generator: not applicable on sim workloads
	fromSim                    // the sim child, host-dependent: not applicable on serve workloads
	fromSimModel               // the sim child, a statistic of the model: fixed by code and seed
)

// inSitu metrics come from a child running the workload itself, so they
// do not apply to workloads of the other family.
func (d metricDef) inSitu() bool { return d.From != isolated }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// endToEnd is what a viewer or an operator of the system sees. Every
// workload reports every one of them: "packets" are data packets the
// viewers received (serve_*) or packets the simulated bottleneck
// carried (sim_*), and the process measured is the server or simulator
// child, never the benchmark itself. The bounds are about three times
// the spread ten runs on ten seeds showed on the shared 2-CPU host the
// benchmark was written on (see README.md), capped at the contract's
// 0.25: CPU time per packet there moves by 5-15% from one quarter of an
// hour to the next with no change to the code.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_pkt", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "pkts_per_s", Unit: "pkts/s", Better: "higher", Bound: 0.10},
	{Name: "layers_mean", Unit: "layers", Better: "higher", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// perLayer metrics come from the traced run. The in-situ groups
// (netio.srv/client/loadgen from a serve child, sim.*/scenario.* from a
// sim child) do not apply to a workload of the other family, which
// prints them as n/a; the isolated timings and trace shares do not
// depend on the workload and are taken once per invocation.
var perLayer = []metricDef{
	// Serve child, window deltas.
	{Name: "netio.srv.user_us_per_pkt", Unit: "us", Better: "lower", From: fromServe},
	{Name: "netio.srv.sys_us_per_pkt", Unit: "us", Better: "lower", From: fromServe},
	{Name: "netio.srv.ctxsw_per_kpkt", Unit: "1/kpkt", Better: "lower", From: fromServe},
	{Name: "netio.srv.batch_pkts_mean", Unit: "pkts", Better: "higher", From: fromServe},
	{Name: "netio.srv.allocs_per_pkt", Unit: "allocs/pkt", Better: "lower", From: fromServe},
	{Name: "netio.srv.gc_cycles", Unit: "count", Better: "lower", From: fromServe},
	{Name: "netio.srv.heap_kb_per_session", Unit: "kB", Better: "lower", From: fromServe},
	{Name: "netio.srv.acked_ratio", Unit: "ratio", Better: "higher", From: fromServe},
	{Name: "netio.srv.retransmits_per_kpkt", Unit: "1/kpkt", Better: "lower", From: fromServe},
	{Name: "netio.srv.nack_drops", Unit: "count", Better: "lower", From: fromServe},
	{Name: "netio.srv.unknown_acks", Unit: "count", Better: "lower", From: fromServe},
	{Name: "netio.srv.bad_pkts", Unit: "count", Better: "lower", From: fromServe},
	{Name: "netio.srv.rejected", Unit: "count", Better: "lower", From: fromServe},
	{Name: "netio.srv.expired", Unit: "count", Better: "lower", From: fromServe},
	{Name: "netio.srv.rcvbuf_drops", Unit: "count", Better: "lower", From: fromServe},
	// Generator side of the same run.
	{Name: "netio.client.gap_jitter_p50_us", Unit: "us", Better: "lower", From: fromServe},
	{Name: "netio.client.gap_jitter_p99_us", Unit: "us", Better: "lower", From: fromServe},
	{Name: "netio.client.join_ms_p50", Unit: "ms", Better: "lower", From: fromServe},
	{Name: "netio.client.join_ms_p99", Unit: "ms", Better: "lower", From: fromServe},
	{Name: "netio.loadgen.cpu_share", Unit: "ratio", Better: "lower", From: fromServe},
	{Name: "netio.loadgen.rcvbuf_drops", Unit: "count", Better: "lower", From: fromServe},
	// Public calls timed in isolation, serving path.
	{Name: "netio.wire.encode_data_ns", Unit: "ns", Better: "lower"},
	{Name: "netio.wire.decode_data_ns", Unit: "ns", Better: "lower"},
	{Name: "netio.wire.encode_ack_ns", Unit: "ns", Better: "lower"},
	{Name: "netio.wire.decode_ack_ns", Unit: "ns", Better: "lower"},
	{Name: "netio.batch.mmsg_write_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "netio.batch.mmsg_read_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "netio.batch.generic_write_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "netio.batch.generic_read_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "core.controller.pick_layer_ns", Unit: "ns", Better: "lower"},
	{Name: "core.controller.on_delivered_ns", Unit: "ns", Better: "lower"},
	{Name: "core.controller.on_backoff_ns", Unit: "ns", Better: "lower"},
	{Name: "core.controller.tick_ns", Unit: "ns", Better: "lower"},
	{Name: "rap.sender.on_send_ns", Unit: "ns", Better: "lower"},
	{Name: "rap.sender.on_ack_ns", Unit: "ns", Better: "lower"},
	{Name: "rap.sender.step_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.rap.send_ack_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.delay.send_ack_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.greedy.send_ack_ns", Unit: "ns", Better: "lower"},
	{Name: "video.receiver.deliver_advance_ns", Unit: "ns", Better: "lower"},
	{Name: "metrics.histogram.observe_ns", Unit: "ns", Better: "lower"},
	// Public calls timed in isolation, simulator.
	{Name: "sim.sched.replay_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "sim.sched.share", Unit: "ratio", Better: "lower"},
	{Name: "sim.link.offer_deliver_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "sim.queue.droptail_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.queue.red_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.pool.get_put_ns", Unit: "ns", Better: "lower"},
	{Name: "tcp.source.ns_per_pkt", Unit: "ns", Better: "lower"},
	// Public calls timed in isolation, tracing and reporting.
	{Name: "trace.series.add_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.set.write_tsv_ms", Unit: "ms", Better: "lower"},
	{Name: "metrics.registry.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "scenario.report_ms", Unit: "ms", Better: "lower"},
	{Name: "figures.render_tables_ms", Unit: "ms", Better: "lower"},
	// Sim child, from each run's registry snapshot. The scenario.* ones
	// and the digest are model statistics: a simulator speed-up must
	// leave them bit-identical, so "better" is nominal.
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower", From: fromSim},
	{Name: "sim.events_per_pkt", Unit: "events/pkt", Better: "lower", From: fromSimModel},
	{Name: "sim.allocs_per_kevent", Unit: "allocs/kevent", Better: "lower", From: fromSim},
	{Name: "sim.model_digest", Unit: "hash48", Better: "lower", From: fromSimModel},
	{Name: "scenario.link_drop_ratio", Unit: "ratio", Better: "lower", From: fromSimModel},
	{Name: "scenario.qa_layers_mean", Unit: "layers", Better: "higher", From: fromSimModel},
	{Name: "scenario.qa_efficiency_e", Unit: "ratio", Better: "higher", From: fromSimModel},
	{Name: "scenario.rap_backoffs", Unit: "count", Better: "lower", From: fromSimModel},
	{Name: "scenario.tcp_rtos", Unit: "count", Better: "lower", From: fromSimModel},
	// Traced replays: self-time share of each layer, and what tracing cost.
	{Name: "trace.share.core", Unit: "ratio", Better: "lower"},
	{Name: "trace.share.rap", Unit: "ratio", Better: "lower"},
	{Name: "trace.share.netio.wire", Unit: "ratio", Better: "lower"},
	{Name: "trace.share.netio.batch", Unit: "ratio", Better: "lower"},
	{Name: "trace.share.serve.harness", Unit: "ratio", Better: "lower"},
	{Name: "trace.share.sim.sched", Unit: "ratio", Better: "lower"},
	{Name: "trace.share.scenario.run", Unit: "ratio", Better: "lower"},
	{Name: "trace.share.scenario.report", Unit: "ratio", Better: "lower"},
	{Name: "trace.share.figures.render", Unit: "ratio", Better: "lower"},
	{Name: "trace.share.trace.tsv", Unit: "ratio", Better: "lower"},
	{Name: "trace.share.sim.harness", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"},
}

// workload is one named set of inputs. Exactly one of serve and sim is
// set.
type workload struct {
	Name  string
	Why   string
	serve *serveSpec
	sim   string // "fleet" or "paper"
}

// serveSpec is one traffic mix offered to the server child. Joins are
// open loop (on a schedule, whatever the server does); within a session
// RAP's ACK clock closes the loop.
type serveSpec struct {
	Sessions  int           // viewers joining during ramp; 0 with JoinEvery set means "until the run ends"
	JoinEvery time.Duration // gap between scheduled joins
	Stream    time.Duration // duration each viewer requests
	CapBps    float64       // RAP rate cap per session, bytes/s
	Pkt       int           // wire packet size, bytes
	C         float64       // per-layer consumption rate, bytes/s
	DropEvery int           // withhold the ACK of every n-th packet and NACK it; 0 = ACK everything
}

// serveRamp runs before the first measured window: joins, RAP's climb
// to the cap, and the first layer additions happen here, so the windows
// see the steady state (serve_churn's steady state is 4 s streams
// coming and going).
const serveRamp = 4 * time.Second

// serveWindow is the length of one measured window. Windows are short
// so that a burst of interference from the host's other tenants spoils
// few of them.
const serveWindow = time.Second

var workloads = []workload{
	{
		Name: "serve_fanout",
		Why:  "1000 viewers x 16 kB/s x 512 B: one packet per session per ~32 ms, so timing wheel, session table and per-wakeup syscalls dominate",
		serve: &serveSpec{Sessions: 1000, JoinEvery: 2 * time.Millisecond, Stream: 60 * time.Second,
			CapBps: 16_000, Pkt: 512, C: 6_000},
	},
	{
		Name: "serve_fat",
		Why:  "16 viewers x 4 MB/s x 1400 B: near-empty wheel, multi-packet batches, so buildPacket, QA, RAP, wire and sendmmsg dominate",
		serve: &serveSpec{Sessions: 16, JoinEvery: 10 * time.Millisecond, Stream: 60 * time.Second,
			CapBps: 4_000_000, Pkt: 1400, C: 400_000},
	},
	{
		Name: "serve_churn",
		Why:  "4 s streams joining at ~136/s (about 550 live) with 1 in 50 packets NACKed: session set-up, expiry, backoff and retransmit beside steady sending",
		serve: &serveSpec{JoinEvery: 7350 * time.Microsecond, Stream: 4 * time.Second,
			CapBps: 32_000, Pkt: 512, C: 6_000, DropEvery: 50},
	},
	{
		Name: "sim_fleet",
		Why:  "Fleet preset, 1000 flows, RED seeded by --seed, 5 simulated s: scheduler, link, queue, TCP scoreboards and transports dominate",
		sim:  "fleet",
	},
	{
		Name: "sim_paper",
		Why:  "Tables 1+2 sweep (T1+T2 x Kmax 2,3,4,5,8), fully traced and rendered: controller, sampler, trace and report dominate; the paper-fidelity workload",
		sim:  "paper",
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
