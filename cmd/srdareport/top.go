package main

// The top subcommand renders a router's /cluster/snapshot document as a
// terminal fleet view: one row per replica with its scrape status and
// derived request/error rates, the merged cluster-level CKMS quantiles,
// and the SLO alert table.  The source is either a router base URL
// (fetched live) or a snapshot JSON file (rendered offline, which is
// also how the golden test pins the layout byte for byte).

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"srda/internal/serve"
	"srda/internal/telemetry"
)

// topExitContract is the exit-code line every srdareport subcommand
// prints in its -h output.
const topExitContract = "exit codes: 0 clean, 1 on fetch or validation failures, 2 on usage errors"

// topMain implements `srdareport top [-once | -watch] <router-url |
// snapshot.json>`, returning the process exit code: 0 clean, 1 on fetch
// or validation failures, 2 on usage errors.
func topMain(w, ew io.Writer, args []string) int {
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	fs.SetOutput(ew)
	once := fs.Bool("once", false, "render a single frame and exit (the default for file sources; overrides -watch)")
	watch := fs.Bool("watch", false, "clear the screen and re-render every -every until interrupted")
	every := fs.Duration("every", 2*time.Second, "refresh interval in -watch mode")
	frames := fs.Int("frames", 0, "in -watch mode, stop after this many frames (0 = until interrupted)")
	fs.Usage = func() {
		fmt.Fprintln(ew, "usage: srdareport top [-once | -watch [-every 2s]] <router-url | snapshot.json>")
		fmt.Fprintln(ew)
		fmt.Fprintln(ew, "renders the cluster fleet view from a router's /cluster/snapshot: per-replica")
		fmt.Fprintln(ew, "status and request/error rates, merged cluster quantiles, and SLO alerts.")
		fmt.Fprintln(ew, "The source is a router base URL or a saved snapshot JSON file.")
		fmt.Fprintln(ew)
		fmt.Fprintln(ew, "flags:")
		fs.PrintDefaults()
		fmt.Fprintln(ew)
		fmt.Fprintln(ew, topExitContract)
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(ew, "srdareport top: need exactly one router URL or snapshot file; see -h")
		return 2
	}
	source := fs.Arg(0)
	live := strings.HasPrefix(source, "http://") || strings.HasPrefix(source, "https://")
	if *once || !live {
		*watch = false
	}

	renderOnce := func(clear bool) int {
		snap, err := fetchSnapshot(source, live)
		if err != nil {
			fmt.Fprintf(ew, "srdareport top: %v\n", err)
			return 1
		}
		if clear {
			fmt.Fprint(w, "\x1b[2J\x1b[H")
		}
		renderTop(w, snap)
		return 0
	}
	if !*watch {
		return renderOnce(false)
	}
	for n := 0; ; n++ {
		if code := renderOnce(true); code != 0 {
			return code
		}
		if *frames > 0 && n+1 >= *frames {
			return 0
		}
		time.Sleep(*every)
	}
}

// fetchSnapshot loads and validates the snapshot document from a router
// base URL (live) or a file path.
func fetchSnapshot(source string, live bool) (*telemetry.ClusterSnapshot, error) {
	var data []byte
	if live {
		url := source
		if !strings.HasSuffix(url, "/cluster/snapshot") {
			url = strings.TrimRight(url, "/") + "/cluster/snapshot"
		}
		client := &http.Client{Timeout: 10 * time.Second}
		resp, err := client.Get(url)
		if err != nil {
			return nil, err
		}
		defer func() { _ = resp.Body.Close() }() // best-effort; body already read or failed
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
		}
		if data, err = serve.ReadReply(resp.Body, resp.ContentLength); err != nil {
			return nil, err
		}
	} else {
		var err error
		if data, err = os.ReadFile(source); err != nil {
			return nil, err
		}
	}
	return telemetry.ValidateClusterSnapshot(data)
}

// renderTop writes one deterministic frame of the fleet view: the input
// document fully determines the output bytes, so a frozen snapshot
// renders identically everywhere (the golden test's contract).
func renderTop(w io.Writer, snap *telemetry.ClusterSnapshot) {
	up := 0
	for _, r := range snap.Replicas {
		if r.Up {
			up++
		}
	}
	fmt.Fprintf(w, "fleet at %s  |  %d replicas, %d up, %d series\n\n",
		snap.Time.UTC().Format(time.RFC3339), len(snap.Replicas), up, snap.Series)
	fmt.Fprintf(w, "%-28s %-5s %8s %8s %9s %7s  %s\n",
		"REPLICA", "UP", "REQ/S", "ERR/S", "P99(S)", "QUEUE", "ERROR")
	for _, r := range snap.Replicas {
		if r.Up {
			fmt.Fprintf(w, "%-28s %-5s %8.1f %8.1f %9.4f %7.0f\n",
				r.Replica, "up", r.RequestRate, r.ErrorRate, r.P99Seconds, r.QueueDepth)
		} else {
			fmt.Fprintf(w, "%-28s %-5s %8s %8s %9s %7s  %s\n",
				r.Replica, "DOWN", "-", "-", "-", "-", r.Error)
		}
	}
	if len(snap.Quantiles) > 0 {
		fmt.Fprintf(w, "\n%-28s %8s %9s %9s %9s\n", "CLUSTER QUANTILES", "COUNT", "P50", "P95", "P99")
		for _, q := range snap.Quantiles {
			fmt.Fprintf(w, "%-28s %8d %9.4f %9.4f %9.4f\n", q.Metric, q.Count, q.P50, q.P95, q.P99)
		}
	}
	if len(snap.Alerts) > 0 {
		fmt.Fprintf(w, "\n%-28s %-8s %-9s %8s %8s  %s\n", "ALERTS", "WINDOW", "STATE", "BURN", "LIMIT", "SINCE")
		for _, a := range snap.Alerts {
			since := ""
			if !a.Since.IsZero() {
				since = a.Since.UTC().Format(time.RFC3339)
			}
			fmt.Fprintf(w, "%-28s %-8s %-9s %8.2f %8.2f  %s\n",
				a.Objective, a.Window, a.State, a.Burn, a.Threshold, since)
		}
	}
}
