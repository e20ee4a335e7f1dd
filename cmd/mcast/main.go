// Command mcast simulates software multicast on a wormhole MIN and
// compares tree-building strategies (the paper's future-work item on
// multicast support).
//
// Usage:
//
//	mcast -net bmin -root 0 -dests 1,2,3,16,32 -len 256
//	mcast -net bmin -broadcast -len 128
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"minsim/internal/cli"
	"minsim/internal/experiments"
	"minsim/internal/multicast"
)

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case errors.Is(err, flag.ErrHelp):
	case err != nil:
		fmt.Fprintf(os.Stderr, "mcast: %v\n", err)
		os.Exit(1)
	}
}

// run executes one mcast command line (without the program name),
// writing the comparison to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("mcast", flag.ContinueOnError)
	var (
		netName   = fs.String("net", "bmin", "network: tmin, dmin, vmin, bmin")
		k         = fs.Int("k", 4, "switch arity")
		stages    = fs.Int("stages", 3, "stages")
		root      = fs.Int("root", 0, "multicast root node")
		destsFlag = fs.String("dests", "", "comma-separated destination nodes")
		broadcast = fs.Bool("broadcast", false, "send to every other node")
		msgLen    = fs.Int("len", 256, "message length in flits")
		gather    = fs.Bool("gather", false, "simulate the reduction (gather) instead of the multicast")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec, err := experiments.ParseNetworkSpec(experiments.NetworkOptions{Kind: *netName, K: *k, Stages: *stages})
	if err != nil {
		return err
	}
	net, err := spec.Build()
	if err != nil {
		return err
	}

	var dests []int
	switch {
	case *broadcast:
		for i := 0; i < net.Nodes; i++ {
			if i != *root {
				dests = append(dests, i)
			}
		}
	case *destsFlag != "":
		if dests, err = cli.ParseNodeList(*destsFlag); err != nil {
			return err
		}
	default:
		return fmt.Errorf("need -dests or -broadcast")
	}

	op := "multicast to"
	if *gather {
		op = "gather from"
	}
	fmt.Fprintf(w, "%s: %d-flit %s %d nodes (root %d)\n\n", net.Name(), *msgLen, op, len(dests), *root)
	fmt.Fprintf(w, "%-24s %-16s %-10s %s\n", "algorithm", "latency (cyc)", "unicasts", "rounds")
	for _, a := range []struct {
		name string
		alg  multicast.Algorithm
	}{
		{"separate addressing", multicast.SeparateAddressing{}},
		{"binomial tree", multicast.Binomial{}},
		{"dimension-ordered tree", multicast.SubtreeAware{}},
	} {
		var latency int64
		var unicasts, rounds int
		if *gather {
			res, err := multicast.Gather(net, a.alg, *root, dests, *msgLen)
			if err != nil {
				return err
			}
			latency, unicasts, rounds = res.Latency, res.Unicasts, res.MaxDepth
		} else {
			res, err := multicast.Run(net, a.alg, *root, dests, *msgLen)
			if err != nil {
				return err
			}
			latency, unicasts, rounds = res.Latency, res.Unicasts, res.MaxDepth
		}
		fmt.Fprintf(w, "%-24s %-16d %-10d %d\n", a.name, latency, unicasts, rounds)
	}
	return nil
}
