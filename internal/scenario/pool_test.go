package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"qav/internal/metrics"
)

// sweepConfigs is the shortened T1/T2 x Kmax grid the determinism tests
// run; short durations keep the full cross-check affordable under -race.
func sweepConfigs() []Config {
	var cfgs []Config
	for _, kmax := range []int{2, 4} {
		t1 := MustPreset("T1", WithKmax(kmax))
		t1.Duration = 20
		cfgs = append(cfgs, t1)
		t2 := MustPreset("T2", WithKmax(kmax))
		t2.Duration = 20
		cfgs = append(cfgs, t2)
	}
	return cfgs
}

// assertResultsIdentical compares everything a figure or table consumes:
// every series (names, timestamps, values), the controller event log,
// and the drop statistics. reflect.DeepEqual on float64 slices is exact
// (byte-identical), which is the determinism guarantee RunAll documents.
func assertResultsIdentical(t *testing.T, want, got *Result) {
	t.Helper()
	wantNames := want.Series.Names()
	gotNames := got.Series.Names()
	if !reflect.DeepEqual(wantNames, gotNames) {
		t.Fatalf("series names differ:\nseq: %v\npar: %v", wantNames, gotNames)
	}
	for _, name := range wantNames {
		ws, gs := want.Series.Get(name), got.Series.Get(name)
		if !reflect.DeepEqual(ws.T, gs.T) {
			t.Fatalf("series %q timestamps differ", name)
		}
		if !reflect.DeepEqual(ws.V, gs.V) {
			t.Fatalf("series %q values differ", name)
		}
	}
	if !reflect.DeepEqual(want.Events, got.Events) {
		t.Fatalf("event logs differ: %d vs %d events", len(want.Events), len(got.Events))
	}
	if want.Stats != got.Stats {
		t.Fatalf("drop stats differ:\nseq: %+v\npar: %+v", want.Stats, got.Stats)
	}
	if want.PlayedSec != got.PlayedSec || want.StallSec != got.StallSec || want.LayerSeconds != got.LayerSeconds {
		t.Fatalf("playback summary differs: (%v,%v,%v) vs (%v,%v,%v)",
			want.PlayedSec, want.StallSec, want.LayerSeconds,
			got.PlayedSec, got.StallSec, got.LayerSeconds)
	}
}

// RunAll must produce byte-identical output to the sequential path for
// every worker count, including more workers than configs.
func TestRunAllMatchesSequential(t *testing.T) {
	cfgs := sweepConfigs()
	seq := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		seq[i] = runChecked(t, cfg)
	}
	for _, workers := range []int{1, 2, 4, len(cfgs) + 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			par := runAllChecked(t, cfgs, workers)
			if len(par) != len(cfgs) {
				t.Fatalf("got %d results, want %d", len(par), len(cfgs))
			}
			for i := range cfgs {
				if par[i].Cfg.Name != cfgs[i].Name {
					t.Fatalf("result %d is %q, want %q: ordering lost", i, par[i].Cfg.Name, cfgs[i].Name)
				}
				assertResultsIdentical(t, seq[i], par[i])
			}
		})
	}
}

func TestRunAllEmpty(t *testing.T) {
	if res := runAllChecked(t, nil, 4); len(res) != 0 {
		t.Fatalf("%d results for no configs", len(res))
	}
}

// A failing config must surface the earliest error by input index while
// the remaining runs still complete.
func TestRunAllAggregatesFirstError(t *testing.T) {
	good := MustPreset("SingleRAP")
	good.Duration = 5
	cfgs := []Config{good, {}, good, {}}
	res, err := RunAll(cfgs, 2)
	if err == nil {
		t.Fatal("invalid config did not error")
	}
	if res[0] == nil || res[2] == nil {
		t.Fatal("valid configs did not finish")
	}
	if res[1] != nil || res[3] != nil {
		t.Fatal("invalid configs produced results")
	}
}

// The QA trace must emit the delivered-rate series alongside the
// transmit-rate series for every traced layer.
func TestRunEmitsDeliveredSeries(t *testing.T) {
	cfg := MustPreset("SingleQA", WithKmax(2))
	cfg.Duration = 10
	res := runChecked(t, cfg)
	for _, name := range []string{"qa.tx.l0", "qa.rx.l0", "qa.tx.l3", "qa.rx.l3"} {
		if res.Series.Get(name) == nil {
			t.Fatalf("series %q missing", name)
		}
	}
	// The base layer is delivered on a private link: its rx series must
	// carry actual data, not stay silently at zero.
	if hi, ok := res.Series.Get("qa.rx.l0").Max(); !ok || hi <= 0 {
		t.Fatal("qa.rx.l0 never saw delivered bytes")
	}
	// Sent and delivered totals must roughly agree on a loss-light link.
	tx := res.Series.Get("qa.tx.l0").Avg()
	rx := res.Series.Get("qa.rx.l0").Avg()
	if rx > tx*1.5 {
		t.Fatalf("delivered rate %v far above transmit rate %v", rx, tx)
	}
}

// A follower ends where a full Run of its config ends: its report is
// the same JSON, byte for byte, and its series the same TSV, its own
// qa.* series and the network's it shares with the simulated run. T1 and
// T2 at the paper's Kmax values; the scale-8 legs skip under -short.
func TestFollowersMatchRun(t *testing.T) {
	for _, scale := range []float64{1, 8} {
		if scale != 1 && testing.Short() {
			continue
		}
		for _, test := range []string{"T1", "T2"} {
			t.Run(fmt.Sprintf("%s scale %g", test, scale), func(t *testing.T) {
				t.Parallel()
				var cfgs []Config
				for _, kmax := range paperKmax {
					cfg := MustPreset(test, WithKmax(kmax), WithScale(scale))
					cfg.Metrics = metrics.NewRegistry()
					cfgs = append(cfgs, cfg)
				}
				got := eachChecked(t, cfgs, 1)
				for i, cfg := range cfgs {
					if follows := got[i].lead != nil; follows != (i > 0) {
						t.Fatalf("Kmax %d: follower %v, want %v", cfg.QA.Kmax, follows, i > 0)
					}
					cfg.Metrics = metrics.NewRegistry()
					want := runChecked(t, cfg)
					if i > 0 && got[i].Series.Get("qa.layers") == got[0].Series.Get("qa.layers") {
						t.Fatalf("Kmax %d: the follower traces the simulated controller", cfg.QA.Kmax)
					}
					for _, f := range []func(*Result) ([]byte, error){reportJSON, seriesTSV} {
						g, err := f(got[i])
						if err != nil {
							t.Fatal(err)
						}
						w, err := f(want)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(g, w) {
							t.Errorf("Kmax %d: the follower differs from Run:\n got %.300s\nwant %.300s", cfg.QA.Kmax, g, w)
						}
					}
				}
			})
		}
	}
}

// An untraced group (RunReports' runs) samples nothing, yet ends where
// the traced group ends: the simulated run and each follower give the
// same report JSON, byte for byte, and their Series hold no series. T1
// and T2 at the paper's Kmax values; the scale-8 legs skip under -short.
func TestUntracedGroupMatchesTraced(t *testing.T) {
	for _, scale := range []float64{1, 8} {
		if scale != 1 && testing.Short() {
			continue
		}
		for _, test := range []string{"T1", "T2"} {
			t.Run(fmt.Sprintf("%s scale %g", test, scale), func(t *testing.T) {
				t.Parallel()
				group := func(untraced bool) []*Result {
					var cfgs []Config
					for _, kmax := range paperKmax {
						cfg := MustPreset(test, WithKmax(kmax), WithScale(scale))
						cfg.Metrics = metrics.NewRegistry()
						cfg.untraced = untraced
						cfgs = append(cfgs, cfg)
					}
					return eachChecked(t, cfgs, 1)
				}
				traced, untraced := group(false), group(true)
				for i, res := range untraced {
					if follows := res.lead != nil; follows != (i > 0) {
						t.Fatalf("config %d: follower %v, want %v", i, follows, i > 0)
					}
					if names := res.Series.Names(); len(names) != 0 {
						t.Fatalf("config %d: untraced, yet it sampled %v", i, names)
					}
					g, err := reportJSON(res)
					if err != nil {
						t.Fatal(err)
					}
					w, err := reportJSON(traced[i])
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(g, w) {
						t.Errorf("config %d: the untraced report differs:\n got %.300s\nwant %.300s", i, g, w)
					}
				}
			})
		}
	}
}

// A group may mix traced and untraced configs: its first traced config
// is simulated, traced, and the rest follow it, the untraced ones
// sampling nothing. Every report, and every traced config's series, is
// the all-traced group's, byte for byte.
func TestMixedGroupTracesOnlyTraced(t *testing.T) {
	group := func(untraced func(i int) bool) []*Result {
		var cfgs []Config
		for i, kmax := range paperKmax {
			cfg := MustPreset("T2", WithKmax(kmax))
			cfg.Metrics = metrics.NewRegistry()
			cfg.untraced = untraced(i)
			cfgs = append(cfgs, cfg)
		}
		return eachChecked(t, cfgs, 1)
	}
	traced := group(func(int) bool { return false })
	mixed := group(func(i int) bool { return i%2 == 0 }) // config 1 leads
	for i, res := range mixed {
		if follows := res.lead != nil; follows != (i != 1) || follows && res.lead != mixed[1] {
			t.Fatalf("config %d: follower %v, want %v of config 1", i, follows, i != 1)
		}
		g, err := reportJSON(res)
		if err != nil {
			t.Fatal(err)
		}
		if w, _ := reportJSON(traced[i]); !bytes.Equal(g, w) {
			t.Errorf("config %d: the report differs:\n got %.300s\nwant %.300s", i, g, w)
		}
		if i%2 == 0 {
			if names := res.Series.Names(); len(names) != 0 {
				t.Errorf("config %d: untraced, yet it sampled %v", i, names)
			}
			continue
		}
		g, err = seriesTSV(res)
		if err != nil {
			t.Fatal(err)
		}
		if w, _ := seriesTSV(traced[i]); !bytes.Equal(g, w) {
			t.Errorf("config %d: the series differ", i)
		}
	}
}

func reportJSON(res *Result) ([]byte, error) { return json.Marshal(res.Report()) }

func seriesTSV(res *Result) ([]byte, error) {
	var buf bytes.Buffer
	err := res.Series.WriteTSV(&buf)
	return buf.Bytes(), err
}

// A group whose first config fails starts over without it: the next
// config is simulated, the last follows it, and both end where their own
// Runs do.
func TestRunEachRestartsWithoutFailedLead(t *testing.T) {
	var cfgs []Config
	for _, kmax := range []int{2, 2, 4} {
		cfg := MustPreset("T1", WithKmax(kmax))
		cfg.Duration = 20
		cfgs = append(cfgs, cfg)
	}
	cfgs[0].QA.C = -1
	results := make([]*Result, len(cfgs))
	_, err := RunEach(cfgs, 1, nil, func(i int, res *Result) { results[i] = res })
	if err == nil || !strings.Contains(err.Error(), "C must be positive") {
		t.Fatalf("got error %v, want the failed lead's", err)
	}
	if results[0] != nil || results[1] == nil || results[1].lead != nil || results[2] == nil || results[2].lead != results[1] {
		t.Fatalf("results %v: want none for the failed config, a simulation, and its follower", results)
	}
	for i, res := range results[1:] {
		want := runChecked(t, cfgs[i+1])
		g, err := reportJSON(res)
		if err != nil {
			t.Fatal(err)
		}
		if w, _ := reportJSON(want); !bytes.Equal(g, w) {
			t.Errorf("config %d: the report differs from Run's:\n got %s\nwant %s", i+1, g, w)
		}
		assertResultsIdentical(t, want, res)
	}
}

// The decision log is kept only where it is read. A run logs its first
// QA flow alone (Result.Events is that flow's log), a follower its first
// controller, and a recorded run every QA flow, for the checker. The
// logs that are kept are the same in all three. A report run, untraced,
// keeps none: neither the run nor its follower has Events, and none of
// the run's controllers logs.
func TestDecisionLogOnlyWhereRead(t *testing.T) {
	cfg := MustPreset("Fleet", WithFlows(40))
	recorded := runChecked(t, cfg)
	for i, q := range recorded.QASrcs {
		if len(q.Ctrl.Events) == 0 {
			t.Fatalf("recorded run: QA flow %d of %d keeps no log", i, len(recorded.QASrcs))
		}
	}
	fol := cfg
	fol.Name += " (follower)"
	results := make([]*Result, 2)
	if _, err := RunEach([]Config{cfg, fol}, 1, nil, func(i int, res *Result) { results[i] = res }); err != nil {
		t.Fatal(err)
	}
	res := results[0]
	if res.lead != nil || results[1].lead != res {
		t.Fatal("the second config did not follow the first")
	}
	for i, q := range res.QASrcs[1:] {
		if q.Ctrl.Events != nil {
			t.Fatalf("QA flow %d keeps a log of %d events", i+1, len(q.Ctrl.Events))
		}
	}
	if !reflect.DeepEqual(res.Events, res.QASrc.Ctrl.Events) {
		t.Fatal("Result.Events is not the first QA flow's log")
	}
	for name, got := range map[string]*Result{"run": res, "follower": results[1]} {
		if !reflect.DeepEqual(got.Events, recorded.Events) {
			t.Fatalf("%s: %d events, the recorded run's first flow %d", name, len(got.Events), len(recorded.Events))
		}
	}

	if _, err := RunEach([]Config{cfg, fol}, 1, func(int) bool { return false }, func(i int, res *Result) { results[i] = res }); err != nil {
		t.Fatal(err)
	}
	res = results[0]
	if res.lead != nil || results[1].lead != res {
		t.Fatal("untraced: the second config did not follow the first")
	}
	for i, q := range res.QASrcs {
		if q.Ctrl.Events != nil {
			t.Fatalf("untraced: QA flow %d keeps a log of %d events", i, len(q.Ctrl.Events))
		}
	}
	for name, got := range map[string]*Result{"run": res, "follower": results[1]} {
		if got.Events != nil {
			t.Fatalf("untraced %s: Result.Events holds %d events", name, len(got.Events))
		}
	}
}
