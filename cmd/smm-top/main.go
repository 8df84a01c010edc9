// Command smm-top is a small operator console for an smm-serve fleet: it
// polls GET /v1/cluster/overview on one member and renders a refreshing
// table of the whole fleet — liveness votes from every member's health
// view (so asymmetric partitions show up as split votes), per-member cache
// hit ratios and degraded-plan counts — plus the merged totals row.
//
// Usage:
//
//	smm-top                         # poll http://localhost:8080 every 2s
//	smm-top -server http://host:8871 -every 1s
//	smm-top -once                   # one table, then exit (scripts, CI)
//	smm-top -once -json             # one raw overview document on stdout
//
// A member the queried node cannot reach renders as an error-stub row, not
// a failure: the console degrades exactly like the endpoint it polls.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"scratchmem/client"
	"scratchmem/internal/cli"
	"scratchmem/internal/server"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	cli.Exit("smm-top", err)
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("smm-top", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		serverURL = fs.String("server", "http://localhost:8080", "base URL of any fleet member")
		every     = fs.Duration("every", 2*time.Second, "poll period")
		timeout   = fs.Duration("timeout", 5*time.Second, "per-poll deadline")
		once      = fs.Bool("once", false, "render one snapshot and exit")
		asJSON    = fs.Bool("json", false, "emit the raw overview document instead of the table (implies -once semantics per poll)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *every <= 0 {
		return fmt.Errorf("-every must be > 0, got %s", *every)
	}
	c := client.New(*serverURL)
	c.MaxRetries = 1 // the poll loop is itself the retry policy

	ctx, stop := cli.SignalContext()
	defer stop()
	for {
		if err := poll(ctx, c, out, *serverURL, *timeout, *asJSON, !*once); err != nil {
			if *once || ctx.Err() != nil {
				return err
			}
			// Keep polling through transient failures: an operator watching a
			// half-dead fleet is exactly who needs the console to stay up.
			fmt.Fprintf(out, "smm-top: %v (retrying in %s)\n", err, *every)
		}
		if *once {
			return nil
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(*every):
		}
	}
}

// poll fetches one overview and renders it. clear prepends the ANSI
// home+clear sequence so successive tables refresh in place.
func poll(ctx context.Context, c *client.Client, out io.Writer, serverURL string, timeout time.Duration, asJSON, clear bool) error {
	pctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	ov, err := c.ClusterOverview(pctx)
	if err != nil {
		return err
	}
	if asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(ov)
	}
	if clear {
		fmt.Fprint(out, "\x1b[H\x1b[2J")
	}
	render(out, serverURL, ov)
	return nil
}

// votes tallies the fleet-wide health matrix: for each member, how many of
// the reachable members' own views consider it alive. A fully healthy
// N-member fleet shows N/N everywhere; an asymmetric partition shows up as
// a split vote (e.g. 2/3) instead of hiding behind one member's opinion.
func votes(ov *server.OverviewResponse) (alive map[string]int, views int) {
	alive = make(map[string]int)
	for _, row := range ov.Members {
		if row.Status == nil {
			continue
		}
		views++
		for _, mh := range row.Status.Members {
			if mh.Alive {
				alive[mh.Member]++
			}
		}
	}
	return alive, views
}

// ratio renders hits/(hits+misses) as a percentage, "-" when idle.
func ratio(hits, misses int64) string {
	if hits+misses == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(hits)/float64(hits+misses))
}

// render writes one table snapshot.
func render(out io.Writer, serverURL string, ov *server.OverviewResponse) {
	aliveVotes, views := votes(ov)
	fmt.Fprintf(out, "smm-top — fleet via %s", serverURL)
	if ov.Self != "" {
		fmt.Fprintf(out, " (answered by %s)", ov.Self)
	}
	fmt.Fprintf(out, " — %d members, %d reachable\n\n", ov.Totals.Members, ov.Totals.Reachable)

	tw := newTable(out, "MEMBER", "VOTES", "ENTRIES", "HIT", "DEGRADED", "STATUS")
	rows := append([]server.OverviewMember(nil), ov.Members...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Member < rows[j].Member })
	for _, row := range rows {
		vote := fmt.Sprintf("%d/%d", aliveVotes[row.Member], views)
		if row.Status == nil {
			tw.row(row.Member, vote, "-", "-", "-", "DOWN: "+row.Error)
			continue
		}
		st := row.Status
		tw.row(row.Member, vote,
			fmt.Sprintf("%d", st.Cache.Entries),
			ratio(st.Cache.Hits, st.Cache.Misses),
			fmt.Sprintf("%d", st.DegradedPlans),
			"up")
	}
	tw.row("TOTAL", "",
		fmt.Sprintf("%d", ov.Totals.CacheEntries),
		ratio(ov.Totals.CacheHits, ov.Totals.CacheMisses),
		fmt.Sprintf("%d", ov.Totals.DegradedPlans),
		"")
	tw.flush()
}

// table is a minimal column aligner (text/tabwriter pads with tabs that
// render unevenly in narrow terminals; fixed two-space gutters read better
// for a top-style refresh).
type table struct {
	out    io.Writer
	header []string
	rows   [][]string
}

func newTable(out io.Writer, header ...string) *table {
	return &table{out: out, header: header}
}

func (t *table) row(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) flush() {
	width := make([]int, len(t.header))
	for i, h := range t.header {
		width[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			// Left-align the first (name) column, right-align the numbers,
			// left-align the trailing status text.
			if i == 0 || i == len(t.header)-1 {
				b.WriteString(c + strings.Repeat(" ", width[i]-len(c)))
			} else {
				b.WriteString(strings.Repeat(" ", width[i]-len(c)) + c)
			}
		}
		fmt.Fprintln(t.out, strings.TrimRight(b.String(), " "))
	}
	line(t.header)
	for _, r := range t.rows {
		line(r)
	}
}
