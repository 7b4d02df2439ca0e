package main

import (
	"fmt"
	"time"

	"mrcc/internal/synthetic"
)

// defaultSeed is the seed used when --seed is not given.
const defaultSeed = 1

// workload is one generated dataset, used the two ways the program
// offers: clustered in batch by fresh cmd/mrcc processes, and held by
// a cmd/mrcc-serve instance that warm-starts from part of it and
// ingests the rest while answering queries.
type workload struct {
	name string
	why  string
	// gen generates the dataset. Its own seed fixes the cluster
	// structure; --seed orders the rows, which decides the CSV bytes,
	// which points the service is staged with and streamed, and the
	// query and probe points. Every seed therefore asks the program for
	// the same amount of clustering work, and the spread between runs
	// is the program's, not the luck of a random cluster layout.
	gen synthetic.Config
}

// cliShare is the part of --seconds spent on repeated CLI runs; the
// service session gets the rest.
const cliShare = 0.3

// serveSpec shapes the service session after the prototype traffic
// the benchmark was specified from: a warm start from a ~120k-point
// snapshot plus a ~20k-point WAL tail, then an open-loop schedule of
// 40 ingests/s of 250 points on one connection next to 100 queries/s on
// another. The streamed points continue through the dataset in the
// seed's row order after the tail, wrapping round to its start when the
// dataset is shorter than the session; repeated points are valid input,
// and the closing check grows its tree from the same points.
type serveSpec struct {
	staged     int     // points in the warm-start snapshot
	tail       int     // points in the WAL tail replayed on boot
	batch      int     // points per ingest request, and per WAL tail record
	ingestRate float64 // ingest requests per second
	queryRate  float64 // query requests per second
}

// The service's policy. As in the prototype, re-clusters are triggered
// by new points (every 5000) with the timer off, so the re-cluster loop
// stays busy and freshness follows re-cluster cost, and checkpoints run
// on a timer. Unlike the prototype, the service clusters with one
// worker: with mrcc-serve's default (one per core) a pass takes both
// cores of a 2-core machine for the whole session, the request path
// queues behind it, and request latencies followed the machine's speed
// drift so closely that their p50 and p95 spread between runs by up to
// 0.22, against 0.03 to 0.07 with one worker. Each run boots the
// service several times and reports the median boot.
const (
	reclusterPoints = 5000
	serveWorkers    = 1
	checkpointEvery = 10 * time.Second
	boots           = 5
)

// counts returns the session's ingest and query requests for a
// schedule of the given length.
func (s serveSpec) counts(length time.Duration) (ingests, queries int) {
	return int(length.Seconds() * s.ingestRate), int(length.Seconds() * s.queryRate)
}

func custom15d(points int) synthetic.Config {
	// The defaults of `datagen -custom`, seed included.
	return synthetic.Config{Dims: 15, Points: points, Clusters: 10, NoiseFrac: 0.15, MinClusterDim: 5, MaxClusterDim: 17, Seed: 1}
}

func catalogue(name string, points int) synthetic.Config {
	cfg, err := synthetic.CatalogueConfig(name)
	if err != nil {
		panic(err) // the names below are fixed catalogue entries
	}
	cfg.Points = points
	return cfg
}

// session is the service session every workload runs on its own data.
var session = serveSpec{staged: 120000, tail: 20000, batch: 250, ingestRate: 40, queryRate: 100}

var workloads = []workload{
	{
		name: "cli-15d",
		why:  "300k x 15d, 10 clusters: the dataset ROADMAP quotes, the mixed case where CSV load, build and scan all matter, and the 15d service session",
		gen:  custom15d(300000),
	},
	{
		name: "cli-6d-tall",
		why:  "catalogue 6d scaled to 1.2M x 6d: parse, normalize, build, labeling and label write dominate and the scan is nearly bypassed",
		gen:  catalogue("6d", 1200000),
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
