package cloud4home_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§V). Each benchmark runs the corresponding experiment on
// the deterministic virtual-time testbed and reports the figure's key
// metric via b.ReportMetric, so `go test -bench=. -benchmem` reproduces
// the evaluation end to end. Rendered tables come from `go run
// ./cmd/c4h-bench`.

import (
	"testing"

	"cloud4home/internal/experiments"
)

const benchSeed = 2011

// BenchmarkFig4HomeVsRemoteLatency regenerates Figure 4: fetch/store
// latency and variability, home vs remote cloud, across object sizes.
func BenchmarkFig4HomeVsRemoteLatency(b *testing.B) {
	var last *experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig4(experiments.DefaultFig4(benchSeed))
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	r10 := rowBySize(b, last)
	b.ReportMetric(r10.HomeFetch.Mean.Seconds(), "homeFetch10MB-s")
	b.ReportMetric(r10.RemoteFetch.Mean.Seconds(), "remoteFetch10MB-s")
	b.ReportMetric(r10.RemoteFetch.Mean.Seconds()/r10.HomeFetch.Mean.Seconds(), "remote/home")
}

func rowBySize(b *testing.B, res *experiments.Fig4Result) experiments.Fig4Row {
	b.Helper()
	for _, row := range res.Rows {
		if row.Size == 10*experiments.MB {
			return row
		}
	}
	b.Fatal("no 10 MB row")
	return experiments.Fig4Row{}
}

// BenchmarkTable1FetchCost regenerates Table I: the fetch cost breakdown
// (total / inter-node / inter-domain / DHT lookup).
func BenchmarkTable1FetchCost(b *testing.B) {
	var last *experiments.Table1Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable1(experiments.DefaultTable1(benchSeed))
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	final := last.Rows[len(last.Rows)-1] // 100 MB row
	b.ReportMetric(float64(final.Total.Mean.Milliseconds()), "total100MB-ms")
	b.ReportMetric(float64(final.InterNode.Mean.Milliseconds()), "interNode100MB-ms")
	b.ReportMetric(float64(final.InterDomain.Mean.Milliseconds()), "interDomain100MB-ms")
	b.ReportMetric(float64(final.DHTLookup.Mean.Milliseconds()), "dhtLookup-ms")
}

// BenchmarkFig5OptimalObjectSize regenerates Figure 5: remote-cloud
// throughput vs object size with the ≈20 MB optimum.
func BenchmarkFig5OptimalObjectSize(b *testing.B) {
	var last *experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig5(experiments.DefaultFig5(benchSeed))
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	size, peak := last.Peak()
	b.ReportMetric(float64(size/experiments.MB), "peakSize-MB")
	b.ReportMetric(peak, "peakThroughput-MB/s")
}

// BenchmarkFig6FetchThroughput regenerates Figure 6: aggregate fetch
// throughput vs the share of data in the remote cloud at 1–3 threads.
func BenchmarkFig6FetchThroughput(b *testing.B) {
	var last *experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig6(experiments.DefaultFig6(benchSeed))
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	home := last.Rows[0]
	nThreads := len(home.MBps)
	b.ReportMetric(home.MBps[0], "1thread@0%-MB/s")
	b.ReportMetric(home.MBps[nThreads-1], "3thread@0%-MB/s")
	b.ReportMetric(100*(home.MBps[nThreads-1]/home.MBps[0]-1), "threadGain-%")
	b.ReportMetric(last.RemoteOnly, "remoteOnly-MB/s")
}

// BenchmarkJointHomeRemoteSplit regenerates the §V-B scenario: image
// sequence processing at home, in EC2, and split across both
// (paper: 162 s / 127 s / 98 s).
func BenchmarkJointHomeRemoteSplit(b *testing.B) {
	var last *experiments.SplitResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSplit(experiments.DefaultSplit(benchSeed))
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Home.Seconds(), "home-s")
	b.ReportMetric(last.Remote.Seconds(), "remote-s")
	b.ReportMetric(last.Split.Seconds(), "split-s")
}

// BenchmarkFig7ServicePlacement regenerates Figure 7: the FDet+FRec
// pipeline on S1/S2/S3 across image sizes, with the S1→S2→S3 crossovers.
func BenchmarkFig7ServicePlacement(b *testing.B) {
	var last *experiments.Fig7Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig7(experiments.DefaultFig7(benchSeed))
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	small := last.Rows[0]
	large := last.Rows[len(last.Rows)-1]
	b.ReportMetric(small.S1.Seconds(), "S1@0.25MB-s")
	b.ReportMetric(large.S2.Seconds(), "S2@2MB-s")
	b.ReportMetric(large.S3.Seconds(), "S3@2MB-s")
}

// BenchmarkFig8DynamicRouting regenerates Figure 8: media conversion at
// the owner (Town) vs the dynamically selected desktop (Topt).
func BenchmarkFig8DynamicRouting(b *testing.B) {
	var last *experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig8(experiments.DefaultFig8(benchSeed))
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	row := last.Rows[len(last.Rows)-1]
	b.ReportMetric(row.Town.Seconds(), "Town-s")
	b.ReportMetric(row.Topt.Seconds(), "Topt-s")
	b.ReportMetric(row.Town.Seconds()/row.Topt.Seconds(), "speedup")
}

// BenchmarkAblationKVCache measures the path-caching design choice.
func BenchmarkAblationKVCache(b *testing.B) {
	var last *experiments.AblationKVCacheResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationKVCache(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.WarmCached.Mean.Microseconds())/1000, "warmCached-ms")
	b.ReportMetric(float64(last.WarmUncached.Mean.Microseconds())/1000, "warmUncached-ms")
	b.ReportMetric(last.HitRate*100, "hitRate-%")
}

// BenchmarkAblationReplication measures metadata survival vs factor.
func BenchmarkAblationReplication(b *testing.B) {
	var last *experiments.AblationReplicationResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationReplication(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.Rows[0].Survived), "survived@rf0")
	b.ReportMetric(float64(last.Rows[2].Survived), "survived@rf2")
}

// BenchmarkAblationBlockingStore measures blocking vs non-blocking store
// latency.
func BenchmarkAblationBlockingStore(b *testing.B) {
	var last *experiments.AblationBlockingResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationBlocking(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.BlockingRem.Mean.Seconds(), "blockingRemote-s")
	b.ReportMetric(last.NonBlockRem.Mean.Seconds(), "nonBlockingRemote-s")
}

// BenchmarkAblationPageSize measures the 4 KB vs 2 MB grant page choice.
func BenchmarkAblationPageSize(b *testing.B) {
	var last *experiments.AblationPageSizeResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationPageSize(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	n := len(last.Sizes) - 1
	b.ReportMetric(float64(last.Std[n].Milliseconds()), "4KB@100MB-ms")
	b.ReportMetric(float64(last.Huge[n].Milliseconds()), "2MB@100MB-ms")
}

// BenchmarkAblationMetadataLayer compares the DHT metadata layer against
// the centralized alternative named in §III-A.
func BenchmarkAblationMetadataLayer(b *testing.B) {
	var last *experiments.AblationMetadataResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationMetadata(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, row := range last.Rows {
		switch row.Mode {
		case "dht (rf=1)":
			b.ReportMetric(row.SurvivedCrash*100, "dhtSurvival-%")
		case "centralized":
			b.ReportMetric(row.SurvivedCrash*100, "centralSurvival-%")
			b.ReportMetric(float64(row.Lookup.Mean.Milliseconds()), "centralLookup-ms")
		}
	}
}

// BenchmarkAblationDecisionPolicy measures the decision-policy choice.
func BenchmarkAblationDecisionPolicy(b *testing.B) {
	var last *experiments.AblationDecisionResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationDecision(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, row := range last.Rows {
		switch row.Policy {
		case "performance":
			b.ReportMetric(row.Batch.Seconds(), "performance-s")
		case "balanced":
			b.ReportMetric(row.Batch.Seconds(), "balanced-s")
		case "battery-saver":
			b.ReportMetric(row.Batch.Seconds(), "batterySaver-s")
		}
	}
}

// BenchmarkScale measures metadata and data-path costs as the home cloud
// grows (§VII iii future work).
func BenchmarkScale(b *testing.B) {
	var last *experiments.ScaleResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunScale(experiments.DefaultScale(benchSeed))
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	first := last.Rows[0]
	final := last.Rows[len(last.Rows)-1]
	b.ReportMetric(float64(first.Lookup.Mean.Milliseconds()), "lookup@4-ms")
	b.ReportMetric(float64(final.Lookup.Mean.Milliseconds()), "lookup@32-ms")
	b.ReportMetric(float64(final.JoinCost.Milliseconds()), "join@32-ms")
}

// BenchmarkScaleUp measures the concurrent data plane: aggregate fetch
// throughput with many client threads, sequential vs striped vs
// striped+cached.
func BenchmarkScaleUp(b *testing.B) {
	var last *experiments.ScaleUpResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunScaleUp(experiments.DefaultScaleUp(benchSeed))
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	seq, _ := last.Row("sequential", 4)
	str, _ := last.Row("striped", 4)
	cch, _ := last.Row("striped+cache", 4)
	b.ReportMetric(seq.AggregateMBps, "sequential@4-MBps")
	b.ReportMetric(str.AggregateMBps, "striped@4-MBps")
	b.ReportMetric(cch.AggregateMBps, "cached@4-MBps")
	if seq.AggregateMBps > 0 {
		b.ReportMetric(str.AggregateMBps/seq.AggregateMBps, "striped/sequential")
	}
}

// BenchmarkHotPath measures the coalescing gate's effect on concurrent
// hot-object fetches. (Host cost per simulated op is cmd/c4h-perf's job:
// one cold pass of a 20 ms sweep could never carry a host-time claim.)
func BenchmarkHotPath(b *testing.B) {
	var last *experiments.HotPathResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunHotPath(experiments.DefaultHotPath(benchSeed))
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Coalesce.SoloFetch.Mean.Seconds(), "soloFetch-s")
	b.ReportMetric(last.Coalesce.SharedFetch.Mean.Seconds(), "coalescedFetch-s")
	b.ReportMetric(float64(last.Coalesce.Coalesced), "coalescedFollowers")
}

// BenchmarkComputeScaleUp measures the concurrent compute plane: 12 MB
// face-recognition process latency, sequential vs sharded+overlap at 4
// workers on clean desktops, plus the speculative mode's degraded-batch
// recovery when the chosen desktop is saturated behind stale estimates.
func BenchmarkComputeScaleUp(b *testing.B) {
	var last *experiments.ComputeScaleUpResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunComputeScaleUp(experiments.DefaultComputeScaleUp(benchSeed))
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	seq, _ := last.Row("sequential", 1)
	ov4, _ := last.Row("sharded+overlap", 4)
	sp4, _ := last.Row("sharded+overlap+spec", 4)
	b.ReportMetric(seq.Clean.Mean.Seconds(), "sequential-s")
	b.ReportMetric(ov4.Clean.Mean.Seconds(), "overlap@4-s")
	if ov4.Clean.Mean > 0 {
		b.ReportMetric(float64(seq.Clean.Mean)/float64(ov4.Clean.Mean), "speedup@4")
	}
	b.ReportMetric(ov4.Degraded.Mean.Seconds(), "degraded@4-s")
	b.ReportMetric(sp4.Degraded.Mean.Seconds(), "specDegraded@4-s")
}

// BenchmarkAvailability measures trace-replay fetch availability under a
// scripted holder crash: the paper's fail-on-loss behaviour vs the
// fallback ladder vs fallback plus post-crash payload repair.
func BenchmarkAvailability(b *testing.B) {
	var last *experiments.AvailabilityResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAvailability(experiments.DefaultAvailability(benchSeed))
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	off, _ := last.Row("faults-off")
	fb, _ := last.Row("fallback")
	rep, _ := last.Row("fallback+repair")
	b.ReportMetric(off.SuccessRate, "faultsOffSuccess-%")
	b.ReportMetric(fb.SuccessRate, "fallbackSuccess-%")
	b.ReportMetric(rep.SuccessRate, "repairSuccess-%")
	b.ReportMetric(float64(fb.Retries), "fallbackRetries")
	b.ReportMetric(float64(rep.Retries), "repairRetries")
	b.ReportMetric(float64(rep.ReplicasRestored), "replicasRestored")
}

// BenchmarkCityScale measures the city-scale simulator core: a 1,000-node
// city (its virtual metrics are pinned byte-for-byte by the experiments
// package's golden test) plus a 10,000-node smoke proving the shared
// membership arena clears 10k homes in one process. The full 100k sweep
// is manual: `go run ./cmd/c4h-bench -exp cityscale`.
func BenchmarkCityScale(b *testing.B) {
	nodes := []int{1_000, 10_000}
	if testing.Short() {
		nodes = []int{1_000}
	}
	var last *experiments.CityScaleResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunCityScale(experiments.CityScaleConfig{Seed: benchSeed, Nodes: nodes})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	r1k := last.Rows[0]
	b.ReportMetric(float64(r1k.BytesPerNode), "bytes-per-node")
	b.ReportMetric(r1k.Metrics.MeanLookupHops, "lookupHops@1k")
	b.ReportMetric(float64(r1k.Metrics.RepairMessages), "repairMsgs@1k")
	if len(last.Rows) > 1 {
		b.ReportMetric(last.Rows[1].Metrics.MeanLookupHops, "lookupHops@10k")
	}
	sp := last.SuperPeer
	b.ReportMetric(sp.MeanHops, "superPeerHops")
	b.ReportMetric(float64(sp.MaxHops), "superPeerMaxHops")
}

// BenchmarkFederation measures the federated-backend study: the
// cost/latency frontier across three heterogeneous cloud backends under
// the placement policies (pinned, cheapest, fastest, most-durable), plus
// erasure coding matching whole-copy replication's availability under a
// holder crash at lower storage overhead. The zero-config identity arm
// must replay bit-identically with the extra backends attached.
func BenchmarkFederation(b *testing.B) {
	var last *experiments.FederationResult
	cfg := experiments.DefaultFederation(benchSeed)
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFederation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Identical {
			b.Fatalf("zero-config run diverged: %s", res.Mismatch)
		}
		last = res
	}
	b.ReportMetric(1, "identical")
	archive, _ := last.FrontierRowFor("pinned-backend:archive")
	metro, _ := last.FrontierRowFor("pinned-backend:metro")
	cheapest, _ := last.FrontierRowFor("cheapest-backend")
	fastest, _ := last.FrontierRowFor("fastest-backend")
	b.ReportMetric(archive.Fetch.Mean.Seconds(), "archiveFetch-s")
	b.ReportMetric(metro.Fetch.Mean.Seconds(), "metroFetch-s")
	b.ReportMetric(cheapest.StoreUSD*1e3, "cheapestStore-mUSD")
	b.ReportMetric(fastest.Store.Mean.Seconds(), "fastestStore-s")
	repl, _ := last.RedundancyRowFor("replicas=2")
	ec, _ := last.RedundancyRowFor("erasure 3-of-5")
	b.ReportMetric(repl.SuccessRate, "replSuccess-%")
	b.ReportMetric(ec.SuccessRate, "erasureSuccess-%")
	b.ReportMetric(repl.Overhead, "replOverhead-x")
	b.ReportMetric(ec.Overhead, "erasureOverhead-x")
	b.ReportMetric(float64(ec.Reconstructs), "reconstructs")
}

// BenchmarkAblationDataCache measures the dom0 object cache's hit path
// against the remote miss and the local-fetch floor.
func BenchmarkAblationDataCache(b *testing.B) {
	var last *experiments.AblationDataCacheResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationDataCache(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.Miss.Mean.Milliseconds()), "miss-ms")
	b.ReportMetric(float64(last.Hit.Mean.Milliseconds()), "hit-ms")
	b.ReportMetric(float64(last.Local.Mean.Milliseconds()), "localFloor-ms")
}
