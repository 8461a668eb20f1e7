// Command xpdlctl is the CLI client for the xpdld simulation daemon.
//
// Usage:
//
//	xpdlctl [-addr URL] <command> [flags] [args]
//
// Commands:
//
//	submit   submit a job: -kind compile|simulate|chaos|cosim|bveq,
//	         -design, -workload or -asm file, -engine, -seed, -cycles,
//	         -checkpoint-every, -tenant, -bveq-len/-width/-window,
//	         -source file (compile only); -wait blocks and streams
//	         progress, -q prints only the job ID
//	status   print a job's status JSON
//	wait     block until a job is terminal, streaming progress
//	cancel   cancel a job (it checkpoints and stays resumable)
//	resume   re-enqueue a canceled job; -force also clears quarantine
//	report   print a done job's canonical report JSON
//	list     list jobs (optionally -tenant)
//	metrics  print the daemon's /metrics text
//
// The daemon address comes from -addr, else $XPDLD_ADDR, else
// http://127.0.0.1:7433. A bare host:port (as written by the daemon's
// addr file) is accepted.
//
// The global -retry flag (e.g. -retry 30s, default off) retries
// transient failures — connection refused while the daemon restarts,
// 429 tenant-quota rejections, 503 load shedding (honoring its
// Retry-After header), other 5xx — with jittered exponential backoff
// for up to that long before giving up.
//
// Exit codes: 0 success (job done, for waiting commands), 1 generic
// failure, 2 usage, 3 the awaited job failed, 4 the awaited job was
// canceled, 5 the awaited job was quarantined (crash-looping; see
// `resume -force`).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"xpdl/internal/xpdld"
)

const (
	exitGeneric     = 1
	exitUsage       = 2
	exitFailed      = 3
	exitCanceled    = 4
	exitQuarantined = 5
)

func main() {
	addr := flag.String("addr", "", "daemon URL (default $XPDLD_ADDR or http://127.0.0.1:7433)")
	retry := flag.Duration("retry", 0, "retry transient failures (connect errors, 429, 503, 5xx) with backoff for this long (0 = fail fast)")
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
	}
	c := xpdld.NewClient(resolveAddr(*addr))
	c.RetryFor = *retry
	cmd, args := flag.Arg(0), flag.Args()[1:]
	switch cmd {
	case "submit":
		submit(c, args)
	case "status":
		st, err := c.Status(oneID(cmd, args))
		check(err)
		printJSON(st)
	case "wait":
		waitFor(c, oneID(cmd, args))
	case "cancel":
		st, err := c.Cancel(oneID(cmd, args))
		check(err)
		printJSON(st)
	case "resume":
		fs := flag.NewFlagSet("resume", flag.ExitOnError)
		force := fs.Bool("force", false, "also resume a quarantined job, resetting its attempt counter")
		_ = fs.Parse(args)
		id := oneID(cmd, fs.Args())
		var st xpdld.Status
		var err error
		if *force {
			st, err = c.ResumeForce(id)
		} else {
			st, err = c.Resume(id)
		}
		check(err)
		printJSON(st)
	case "report":
		b, err := c.Report(oneID(cmd, args))
		check(err)
		os.Stdout.Write(b)
	case "list":
		fs := flag.NewFlagSet("list", flag.ExitOnError)
		tenant := fs.String("tenant", "", "filter by tenant")
		_ = fs.Parse(args)
		sts, err := c.List(*tenant)
		check(err)
		for _, st := range sts {
			errKind := ""
			if st.Error != nil {
				errKind = " " + st.Error.Kind
			}
			fmt.Printf("%s  %-8s  %-8s  cycle=%d%s\n", st.ID, st.Spec.Kind, st.State, st.Progress.Cycle, errKind)
		}
	case "metrics":
		text, err := c.Metrics()
		check(err)
		fmt.Print(text)
	default:
		usage()
	}
}

func submit(c *xpdld.Client, args []string) {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	kind := fs.String("kind", "", "job kind: "+strings.Join(xpdld.Kinds(), "|"))
	design := fs.String("design", "", "processor variant (base|fatal|trap|csr|all)")
	source := fs.String("source", "", "XPDL source `file` (compile jobs)")
	workload := fs.String("workload", "", "built-in kernel name (fib, crc, ...)")
	asmFile := fs.String("asm", "", "RV32IM assembly `file`")
	engine := fs.String("engine", "", "executor: interp|vm (default vm)")
	seed := fs.Uint64("seed", 0, "fault-injection seed (chaos; optional for cosim)")
	cycles := fs.Int("cycles", 0, "cycle budget (0 = default, clamped to the tenant quota)")
	ckptEvery := fs.Int("checkpoint-every", 0, "checkpoint interval in cycles (0 = server default, <0 disables)")
	tenant := fs.String("tenant", "", "tenant name for quota accounting")
	bveqLen := fs.Int("bveq-len", 0, "bveq: max program length")
	bveqWidth := fs.Int("bveq-width", 0, "bveq: immediate-domain width")
	bveqWindow := fs.Int("bveq-window", 0, "bveq: interrupt window in cycles")
	wait := fs.Bool("wait", false, "block until the job is terminal, streaming progress")
	quiet := fs.Bool("q", false, "print only the job ID")
	_ = fs.Parse(args)

	sp := xpdld.Spec{
		Kind: *kind, Tenant: *tenant, Design: *design,
		Workload: *workload, Engine: *engine, Seed: *seed,
		MaxCycles: *cycles, CheckpointEvery: *ckptEvery,
		BveqLen: *bveqLen, BveqWidth: *bveqWidth, BveqWindow: *bveqWindow,
	}
	if *source != "" {
		b, err := os.ReadFile(*source)
		check(err)
		sp.Source = string(b)
	}
	if *asmFile != "" {
		b, err := os.ReadFile(*asmFile)
		check(err)
		sp.Asm = string(b)
	}
	st, err := c.Submit(sp)
	check(err)
	if *quiet {
		fmt.Println(st.ID)
	} else {
		fmt.Fprintf(os.Stderr, "submitted %s (%s)\n", st.ID, st.Spec.Kind)
	}
	if *wait {
		waitFor(c, st.ID)
	}
}

// waitFor streams a job to its terminal state and exits with a code
// describing it.
func waitFor(c *xpdld.Client, id string) {
	last := ""
	st, err := c.Events(context.Background(), id, func(st xpdld.Status) bool {
		line := fmt.Sprintf("%s %s cycle=%d retired=%d checkpoint=%d",
			st.ID, st.State, st.Progress.Cycle, st.Progress.Retired, st.Progress.CheckpointCycle)
		if line != last {
			fmt.Fprintln(os.Stderr, line)
			last = line
		}
		return true
	})
	check(err)
	if !st.State.Terminal() {
		// Stream broke mid-job (e.g. daemon restart): fall back to Wait.
		st, err = c.Wait(context.Background(), id)
		check(err)
	}
	switch st.State {
	case xpdld.StateDone:
		b, err := c.Report(id)
		check(err)
		os.Stdout.Write(b)
	case xpdld.StateFailed:
		printJSON(st)
		os.Exit(exitFailed)
	case xpdld.StateCanceled:
		printJSON(st)
		os.Exit(exitCanceled)
	case xpdld.StateQuarantined:
		printJSON(st)
		os.Exit(exitQuarantined)
	}
}

func resolveAddr(flagAddr string) string {
	addr := flagAddr
	if addr == "" {
		addr = os.Getenv("XPDLD_ADDR")
	}
	if addr == "" {
		addr = "http://127.0.0.1:7433"
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return addr
}

func oneID(cmd string, args []string) string {
	if len(args) != 1 {
		fmt.Fprintf(os.Stderr, "xpdlctl: %s takes exactly one job ID\n", cmd)
		os.Exit(exitUsage)
	}
	return args[0]
}

func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "xpdlctl:", err)
		os.Exit(exitGeneric)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: xpdlctl [-addr URL] <command> [flags]
commands: submit status wait cancel resume report list metrics`)
	os.Exit(exitUsage)
}
