// Command mepipe-worker runs ONE pipeline stage as its own OS process,
// exchanging tensors with peer processes over TCP — the deployment shape of
// a real multi-host pipeline. Every worker constructs the model, schedule,
// and batch deterministically from the shared flags (same seeds → same
// weights), so no parameter transfer is needed, exactly like ranks loading
// the same initialisation.
//
// Coordinator mode spawns the whole pipeline locally and verifies it:
//
//	mepipe-worker -spawn -pp 4 -slices 2 -micro 4 -steps 5 -verify
//
// Each child prints its listening address; the coordinator broadcasts the
// address map; children dial their lower-index peers, run the requested
// number of training steps (SGD on each stage's own parameters in between,
// frames routed by iteration tag), and verify every parameter they own
// against a locally replayed sequential reference.
package main

import (
	"bufio"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"

	"mepipe/internal/data"
	"mepipe/internal/nn"
	"mepipe/internal/pipeline"
	"mepipe/internal/sched"
	"mepipe/internal/tensor"
)

type jobFlags struct {
	pp, vp, slices, micro         int
	hidden, layers, seqLen, vocab int
	steps                         int
	lr                            float64
	seed                          int64
	verify                        bool
	kernelWorkers                 int
}

func main() {
	var (
		spawn = flag.Bool("spawn", false, "coordinator: spawn one worker process per stage")
		stage = flag.Int("stage", -1, "worker: the pipeline stage this process executes")
	)
	jf := jobFlags{}
	flag.IntVar(&jf.pp, "pp", 4, "pipeline stages")
	flag.IntVar(&jf.vp, "vp", 1, "virtual pipeline size")
	flag.IntVar(&jf.slices, "slices", 2, "sequence pipeline size")
	flag.IntVar(&jf.micro, "micro", 4, "micro-batches")
	flag.IntVar(&jf.hidden, "hidden", 16, "hidden size")
	flag.IntVar(&jf.layers, "layers", 8, "transformer layers")
	flag.IntVar(&jf.seqLen, "seq", 16, "sequence length")
	flag.IntVar(&jf.vocab, "vocab", 31, "vocabulary size")
	flag.IntVar(&jf.steps, "steps", 1, "training steps (SGD on each stage's own parameters between steps)")
	flag.Float64Var(&jf.lr, "lr", 0.05, "SGD learning rate")
	flag.Int64Var(&jf.seed, "seed", 42, "weights and data seed")
	flag.BoolVar(&jf.verify, "verify", false, "check owned weights against a local sequential reference")
	flag.IntVar(&jf.kernelWorkers, "kernel-workers", 0, "GEMM kernel workers per process (0 = GOMAXPROCS); results are bitwise identical for any count")
	flag.Parse()
	if jf.kernelWorkers > 0 {
		tensor.Configure(tensor.KernelConfig{Workers: jf.kernelWorkers})
	}

	if *spawn {
		fatal(coordinator(jf))
		return
	}
	if *stage < 0 {
		fatal(fmt.Errorf("need -stage (worker) or -spawn (coordinator)"))
	}
	fatal(worker(*stage, jf))
}

// worker executes one stage: announce the listener, learn the peers, wire
// up, run, report.
func worker(stage int, jf jobFlags) error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer l.Close()
	fmt.Printf("LISTEN %d %s\n", stage, l.Addr())

	in := bufio.NewScanner(os.Stdin)
	if !in.Scan() {
		return fmt.Errorf("stage %d: no PEERS line on stdin", stage)
	}
	fields := strings.Fields(in.Text())
	if len(fields) != jf.pp+1 || fields[0] != "PEERS" {
		return fmt.Errorf("stage %d: malformed PEERS line %q", stage, in.Text())
	}
	addrs := fields[1:]

	m, s, batches, err := buildJob(jf)
	if err != nil {
		return err
	}
	loop, err := pipeline.NewStageLoop(m, s, stage)
	if err != nil {
		return err
	}
	probe, err := pipeline.NewStageWorker(m, s, batches[0], stage)
	if err != nil {
		return err
	}
	conns := map[int]net.Conn{}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	// Higher stage dials lower; lower accepts and reads the dialer's id.
	accepts := 0
	for _, peer := range probe.Peers() {
		if peer < stage {
			c, err := net.Dial("tcp", addrs[peer])
			if err != nil {
				return fmt.Errorf("stage %d dialing %d: %w", stage, peer, err)
			}
			if err := binary.Write(c, binary.LittleEndian, uint32(stage)); err != nil {
				return err
			}
			conns[peer] = c
		} else {
			accepts++
		}
	}
	for i := 0; i < accepts; i++ {
		c, err := l.Accept()
		if err != nil {
			return err
		}
		var id uint32
		if err := binary.Read(c, binary.LittleEndian, &id); err != nil {
			return err
		}
		conns[int(id)] = c
	}

	losses, err := loop.RunSteps(conns, batches, float32(jf.lr))
	if err != nil {
		return err
	}
	for i, loss := range losses {
		fmt.Printf("STAGE %d step %d loss %.6f\n", stage, i, loss)
	}
	if jf.verify {
		// Replay the same steps sequentially and compare every parameter
		// this stage owns — layers, norms, embedding, head — after
		// training.
		ref, _, refBatches, err := buildJob(jf)
		if err != nil {
			return err
		}
		for _, b := range refBatches {
			ref.ZeroGrads()
			if _, err := ref.TrainSequential(b, jf.slices); err != nil {
				return err
			}
			ref.SGDStep(float32(jf.lr))
		}
		maxDiff := 0.0
		for i, p := range m.Params() {
			if !probe.Owns(p) {
				continue
			}
			if d := tensor.MaxAbsDiff(ref.Params()[i].W, p.W); d > maxDiff {
				maxDiff = d
			}
		}
		if maxDiff > 1e-4 {
			return fmt.Errorf("stage %d: weights diverged from sequential training by %g", stage, maxDiff)
		}
		fmt.Printf("STAGE %d verified: owned weights match sequential training (max diff %.2g)\n", stage, maxDiff)
	}
	return nil
}

// buildJob deterministically constructs the model, schedule and per-step
// batches every process agrees on.
func buildJob(jf jobFlags) (*nn.Model, *sched.Schedule, [][][]int, error) {
	cfg := nn.Config{
		Hidden: jf.hidden, Heads: 2, FFN: jf.hidden * 2,
		Vocab: jf.vocab, Layers: jf.layers, SeqLen: jf.seqLen,
	}
	m, err := nn.NewModel(cfg, jf.seed)
	if err != nil {
		return nil, nil, nil, err
	}
	s, err := sched.MEPipe(jf.pp, jf.vp, jf.slices, jf.micro, 0, nn.WeightGradGEMMs, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	stream, err := data.NewStream(cfg.Vocab, cfg.SeqLen, jf.seed+1)
	if err != nil {
		return nil, nil, nil, err
	}
	batches := make([][][]int, jf.steps)
	for i := range batches {
		batches[i] = stream.Batch(jf.micro)
	}
	return m, s, batches, nil
}

// coordinator spawns one worker process per stage and brokers the address
// exchange.
func coordinator(jf jobFlags) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	addrs := make([]string, jf.pp)
	type child struct {
		cmd   *exec.Cmd
		stdin io.WriteCloser
		out   *bufio.Scanner
	}
	children := make([]child, jf.pp)
	for k := 0; k < jf.pp; k++ {
		args := []string{
			"-stage", fmt.Sprint(k),
			"-pp", fmt.Sprint(jf.pp), "-vp", fmt.Sprint(jf.vp),
			"-slices", fmt.Sprint(jf.slices), "-micro", fmt.Sprint(jf.micro),
			"-hidden", fmt.Sprint(jf.hidden), "-layers", fmt.Sprint(jf.layers),
			"-seq", fmt.Sprint(jf.seqLen), "-vocab", fmt.Sprint(jf.vocab),
			"-seed", fmt.Sprint(jf.seed),
			"-steps", fmt.Sprint(jf.steps), "-lr", fmt.Sprint(jf.lr),
		}
		if jf.verify {
			args = append(args, "-verify")
		}
		if jf.kernelWorkers > 0 {
			args = append(args, "-kernel-workers", fmt.Sprint(jf.kernelWorkers))
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		if err := cmd.Start(); err != nil {
			return err
		}
		children[k] = child{cmd: cmd, stdin: stdin, out: bufio.NewScanner(stdout)}
	}
	// Gather LISTEN lines.
	for k := range children {
		if !children[k].out.Scan() {
			return fmt.Errorf("stage %d exited before announcing its address", k)
		}
		var stage int
		var addr string
		if _, err := fmt.Sscanf(children[k].out.Text(), "LISTEN %d %s", &stage, &addr); err != nil {
			return fmt.Errorf("stage %d: bad announce %q", k, children[k].out.Text())
		}
		addrs[stage] = addr
	}
	// Broadcast the address map.
	peers := "PEERS " + strings.Join(addrs, " ") + "\n"
	for k := range children {
		if _, err := io.WriteString(children[k].stdin, peers); err != nil {
			return err
		}
		children[k].stdin.Close()
	}
	// Collect reports.
	perStep := make([]float64, jf.steps)
	for k := range children {
		for children[k].out.Scan() {
			line := children[k].out.Text()
			fmt.Println(line)
			var st, step int
			var loss float64
			if n, _ := fmt.Sscanf(line, "STAGE %d step %d loss %f", &st, &step, &loss); n == 3 && step < jf.steps {
				perStep[step] += loss
			}
		}
		if err := children[k].cmd.Wait(); err != nil {
			return fmt.Errorf("stage %d failed: %w", k, err)
		}
	}
	for i, loss := range perStep {
		fmt.Printf("TOTAL step %d loss %.6f\n", i, loss)
	}
	return nil
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mepipe-worker:", err)
		os.Exit(1)
	}
}
