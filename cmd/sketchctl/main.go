// Command sketchctl is the operator CLI for a sketchd cluster: ring and
// health inspection, key placement, global queries, and the rebalance
// and drain verbs, all over the /cluster/* and /v1/healthz endpoints of
// any member (the commands that need the owner are redirected to it by
// the cluster itself).
//
// Usage:
//
//	sketchctl -addr http://10.0.0.1:9001 status
//	sketchctl -addr http://10.0.0.1:9001 place tenant-a
//	sketchctl -addr http://10.0.0.1:9001 query tenant-a estimate
//	sketchctl -addr http://10.0.0.1:9001 query -merge-all tenant-a topk 10
//	sketchctl -addr http://10.0.0.1:9001 rebalance
//	sketchctl -addr http://10.0.0.1:9001 drain
//	sketchctl -addr http://10.0.0.1:9001 health
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "sketchctl: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sketchctl", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "base URL of any cluster member")
	timeout := fs.Duration("timeout", 10*time.Second, "request timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c := &ctl{base: strings.TrimRight(*addr, "/"), hc: &http.Client{Timeout: *timeout}, out: out}
	rest := fs.Args()
	if len(rest) == 0 {
		return fmt.Errorf("missing command (status | place <key> | query [-merge-all] <key> <kind> [arg] | rebalance | drain | health)")
	}
	switch rest[0] {
	case "status":
		return c.status()
	case "place":
		if len(rest) != 2 {
			return fmt.Errorf("usage: place <key>")
		}
		return c.place(rest[1])
	case "query":
		return c.query(rest[1:])
	case "rebalance", "ship-now":
		return c.post("/cluster/ship-now")
	case "drain":
		return c.post("/cluster/drain")
	case "health":
		return c.health()
	}
	return fmt.Errorf("unknown command %q", rest[0])
}

type ctl struct {
	base string
	hc   *http.Client
	out  io.Writer
}

// getJSON decodes a GET answer, treating any non-2xx as the server's
// structured error.
func (c *ctl) getJSON(path string, v any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	return decodeAPI(resp, v)
}

func decodeAPI(resp *http.Response, v any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var e server.ErrorResponse
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			return fmt.Errorf("%s: %s", resp.Status, e.Error)
		}
		return fmt.Errorf("%s", resp.Status)
	}
	return json.Unmarshal(body, v)
}

func (c *ctl) status() error {
	var st cluster.StatusResponse
	if err := c.getJSON("/cluster/status", &st); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "self      %s  (seq %d, draining=%v)\n", st.Self, st.Seq, st.Draining)
	fmt.Fprintf(c.out, "cluster   R=%d, ship every %s, forward=%v, %d local keys\n",
		st.Replicas, st.ShipInterval, st.Forward, st.Keys)
	for _, p := range st.Peers {
		state := "up"
		if p.Down {
			state = "DOWN"
		}
		if p.Draining {
			state += ", draining"
		}
		fmt.Fprintf(c.out, "peer      %s  (%s, seq %d)\n", p.Addr, state, p.Seq)
	}
	return nil
}

func (c *ctl) place(key string) error {
	var pr cluster.PlacementResponse
	if err := c.getJSON("/cluster/place?key="+url.QueryEscape(key), &pr); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "key       %s\n", pr.Key)
	fmt.Fprintf(c.out, "owner     %s\n", pr.Owner)
	fmt.Fprintf(c.out, "replicas  %s\n", strings.Join(pr.Replicas, " "))
	fmt.Fprintf(c.out, "order     %s\n", strings.Join(pr.Order, " "))
	return nil
}

func (c *ctl) query(args []string) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	mergeAll := fs.Bool("merge-all", false, "merge every member's copy (fleet aggregation over disjoint sub-streams)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) < 2 {
		return fmt.Errorf("usage: query [-merge-all] <key> estimate | point <item> | topk <k>")
	}
	key, kind := rest[0], rest[1]
	q := server.Query{Kind: kind}
	switch kind {
	case server.QueryEstimate:
		if len(rest) != 2 {
			return fmt.Errorf("estimate takes no argument")
		}
	case server.QueryPoint:
		if len(rest) != 3 {
			return fmt.Errorf("usage: query <key> point <item>")
		}
		item, err := strconv.ParseUint(rest[2], 10, 64)
		if err != nil {
			return fmt.Errorf("bad item %q: %v", rest[2], err)
		}
		q.Item = server.U64(item)
	case server.QueryTopK:
		if len(rest) != 3 {
			return fmt.Errorf("usage: query <key> topk <k>")
		}
		k, err := strconv.Atoi(rest[2])
		if err != nil {
			return fmt.Errorf("bad k %q: %v", rest[2], err)
		}
		q.K = k
	default:
		return fmt.Errorf("unknown query kind %q (estimate | point | topk)", kind)
	}
	body, err := json.Marshal(server.QueryRequest{Key: key, Queries: []server.Query{q}})
	if err != nil {
		return err
	}
	path := "/cluster/query"
	if *mergeAll {
		path += "?merge=all"
	}
	resp, err := c.hc.Post(c.base+path, "application/json", strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	var qr server.QueryResponse
	if err := decodeAPI(resp, &qr); err != nil {
		return err
	}
	for _, a := range qr.Answers {
		switch a.Kind {
		case server.QueryEstimate:
			unit := "relative"
			if a.Additive {
				unit = "bits, additive"
			}
			fmt.Fprintf(c.out, "estimate  %g  (±%g %s)\n", a.Value, a.ErrorBound, unit)
		case server.QueryPoint:
			fmt.Fprintf(c.out, "point     %d = %g  (±%g)\n", uint64(*a.Item), a.Value, a.ErrorBound)
		case server.QueryTopK:
			for i, iw := range a.Items {
				fmt.Fprintf(c.out, "top %-4d  %d = %g\n", i+1, uint64(iw.Item), iw.Weight)
			}
		}
	}
	return nil
}

func (c *ctl) post(path string) error {
	resp, err := c.hc.Post(c.base+path, "application/json", nil)
	if err != nil {
		return err
	}
	var dr cluster.DrainResponse
	if err := decodeAPI(resp, &dr); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "draining  %v\nshipped   %d\n", dr.Draining, dr.Shipped)
	return nil
}

func (c *ctl) health() error {
	resp, err := c.hc.Get(c.base + "/v1/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var h server.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "status    %s  (HTTP %d)\n", h.Status, resp.StatusCode)
	fmt.Fprintf(c.out, "durable   %v, %d/%d keys, %d checkpoints written\n", h.Durable, h.Keys, h.MaxKeys, h.Checkpoints)
	if h.Recovery != nil {
		fmt.Fprintf(c.out, "wal       %d segments, %d records\n", h.Recovery.WAL.Segments, h.Recovery.WAL.Records)
	}
	return nil
}
