// Command minsim runs and inspects switch-based wormhole networks:
//
//	minsim run -net dmin -pattern hotspot -hotx 0.05 -load 0.4  # one point
//	minsim sweep -net bmin -from 0.05 -to 0.9 -points 12       # one curve
//	minsim saturate -cache results/cache      # bisected saturation matrix
//	minsim topo -net bmin -k 2 -stages 3 route 1 5   # Theorem 1's paths
//	minsim figures -id fig18a -csv                # one paper panel
//	minsim serve -addr :8080 &                    # the service, then a panel
//	curl -X POST localhost:8080/v1/run -d '{"figures":["fig16a"],"budget":{"preset":"quick"}}'
//	minsim coordinate -addr :18090 &              # a fleet: its coordinator
//	minsim serve -addr :18091 -coordinator http://127.0.0.1:18090 &  # a worker
//
// The flags parse through the spec vocabulary of the JSON experiment
// schema (experiments.ParseNetworkSpec, experiments.ParseWorkloadSpec),
// and every simulated point is a keyed simrun.RunSpec: its statistics
// are those a plan computes and caches for that spec.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"minsim/internal/experiments"
	"minsim/internal/simrun"
	"minsim/internal/topology"
)

const usageText = `usage: minsim <command> [flags] [args]
commands:
  run         simulate one load point and print its statistics
  sweep       simulate an offered-load sweep and print its curve
  saturate    bisect the maximum sustainable load of each network and pattern
  topo        inspect a topology: wiring, routes, partitions, cost
  figures     regenerate the paper's figures and the extension experiments
  serve       serve simulations over HTTP; with -coordinator, also a fleet worker
  coordinate  lease a service's simulations to the fleet's serve workers
"minsim <command> -h" lists a command's flags; a served panel:
  curl -X POST localhost:8080/v1/run -d '{"figures":["fig16a"],"budget":{"preset":"quick"}}'`

// commands maps each subcommand to its entry point, which writes its
// report to stdout and its flag errors and progress to stderr.
var commands = map[string]func(args []string, stdout, stderr io.Writer) error{
	"run": func(args []string, stdout, stderr io.Writer) error {
		_, _, err := run(args, stdout, stderr)
		return err
	},
	"sweep":      sweep,
	"saturate":   saturate,
	"topo":       topo,
	"figures":    figures,
	"serve":      serve,
	"coordinate": coordinate,
}

// errFlags marks a command line that the flag package has already
// reported, with the command's flag listing.
var errFlags = errors.New("bad flags")

// usageError is a command line a command refuses before it runs; minsim
// prints it as it is and exits 2.
type usageError string

func (e usageError) Error() string { return string(e) }

func main() {
	os.Exit(minsim(os.Args[1:], os.Stdout, os.Stderr))
}

// minsim dispatches one command line (without the program name) and
// returns the exit status: 2 for a bad command line, 1 for a failed
// command.
func minsim(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || commands[args[0]] == nil {
		fmt.Fprintln(stderr, usageText)
		return 2
	}
	switch err := commands[args[0]](args[1:], stdout, stderr); {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errFlags):
		return 2
	case errors.As(err, new(usageError)):
		fmt.Fprintln(stderr, err)
		return 2
	default:
		fmt.Fprintf(stderr, "minsim %s: %v\n", args[0], err)
		return 1
	}
}

// parse parses args into fs, which reports its errors to stderr.
func parse(fs *flag.FlagSet, args []string, stderr io.Writer) error {
	fs.SetOutput(stderr)
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return fmt.Errorf("%w: %w", errFlags, err)
	}
	return err
}

// addNetworkFlags registers -net, -wiring, -k, -stages, -dilation and
// -vcs. The dimensions default to 0, the family default the spec
// applies: dilation 2 on a DMIN, 2 virtual channels on a VMIN and 1 on
// a BMIN.
func addNetworkFlags(fs *flag.FlagSet) *experiments.NetworkOptions {
	o := new(experiments.NetworkOptions)
	fs.StringVar(&o.Kind, "net", "tmin", "network: tmin, dmin, vmin, bmin")
	fs.StringVar(&o.Wiring, "wiring", "cube", "interstage wiring of tmin, dmin and vmin: cube, butterfly, omega, baseline")
	fs.IntVar(&o.K, "k", 4, "switch arity")
	fs.IntVar(&o.Stages, "stages", 3, "stages (nodes = k^stages)")
	fs.IntVar(&o.Dilation, "dilation", 0, "DMIN dilation (0 = 2)")
	fs.IntVar(&o.VCs, "vcs", 0, "virtual channels per link (0 = 2 on a VMIN, 1 on a BMIN)")
	return o
}

// buildNetwork resolves the network flags into a spec and builds the
// network it names.
func buildNetwork(o *experiments.NetworkOptions) (experiments.NetworkSpec, *topology.Network, error) {
	spec, err := experiments.ParseNetworkSpec(*o)
	if err != nil {
		return spec, nil, err
	}
	net, err := spec.Build()
	return spec, net, err
}

// addWorkloadFlags registers -pattern, -scope, -hotx, -bfi, -minlen and
// -maxlen; the length flags' usage ends in unit.
func addWorkloadFlags(fs *flag.FlagSet, unit string) *experiments.WorkloadOptions {
	o := new(experiments.WorkloadOptions)
	fs.StringVar(&o.Pattern, "pattern", "uniform", "traffic: uniform, hotspot, shuffle, butterfly, adversarial, or a named permutation")
	fs.StringVar(&o.Cluster, "scope", "global", "clustering: global, cluster16, shared, cluster32")
	fs.Float64Var(&o.HotX, "hotx", 0.05, "hot spot extra fraction")
	fs.IntVar(&o.ButterflyI, "bfi", 2, "butterfly permutation index")
	fs.IntVar(&o.MinLen, "minlen", 8, "minimum message length"+unit)
	fs.IntVar(&o.MaxLen, "maxlen", 1024, "maximum message length"+unit)
	return o
}

// parseRatios parses colon-separated per-cluster load ratios,
// e.g. "4:1:1:1".
func parseRatios(s string) ([]float64, error) {
	parts := strings.Split(s, ":")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad ratio %q: %w", p, err)
		}
		if v < 0 {
			return nil, fmt.Errorf("negative ratio %v", v)
		}
		out[i] = v
	}
	return out, nil
}

// budget holds -warmup, -measure and -seed.
type budget struct {
	warmup, measure int64
	seed            uint64
}

// addBudgetFlags registers -warmup and -measure, their usage ending in
// per, and -seed with the given default.
func addBudgetFlags(fs *flag.FlagSet, per string, seed uint64) *budget {
	b := new(budget)
	fs.Int64Var(&b.warmup, "warmup", 20000, "warmup cycles"+per)
	fs.Int64Var(&b.measure, "measure", 60000, "measurement cycles"+per)
	fs.Uint64Var(&b.seed, "seed", seed, "random seed")
	return b
}

// check refuses what simd refuses: a negative budget, and one whose
// total cycle count wraps.
func (b budget) check() error {
	if b.warmup < 0 || b.measure < 0 {
		return errors.New("negative cycle budget")
	}
	if b.measure > math.MaxInt64-b.warmup {
		return fmt.Errorf("cycle budget %d warmup + %d measure exceeds %d cycles", b.warmup, b.measure, int64(math.MaxInt64))
	}
	return nil
}

// addCacheFlag registers -cache.
func addCacheFlag(fs *flag.FlagSet) *string {
	return fs.String("cache", "", "content-addressed result cache directory (empty = no cache)")
}

// withStore returns opts reading and writing the store at dir, if
// dir is not empty.
func withStore(opts simrun.Options, dir string) (simrun.Options, error) {
	if dir == "" {
		return opts, nil
	}
	store, err := simrun.NewStore(dir)
	if err == nil {
		opts.Store = store
	}
	return opts, err
}

// startProfiles begins CPU profiling into cpuPath and arranges for a
// heap profile to be written to memPath; either path may be empty to
// skip that profile. The returned stop, deferred by the command, ends
// both profiles on every return, an error's included, so hot-path work
// is measurable without editing code:
//
//	minsim sweep -cpuprofile cpu.out ... && go tool pprof -top cpu.out
func startProfiles(cpuPath, memPath string, stderr io.Writer) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // get up-to-date allocation statistics
			if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
			}
		}
	}, nil
}
