package pipeline

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"

	"mepipe/internal/sched"
	"mepipe/internal/tensor"
)

// Network transport: the same pipeline runtime, but stage-to-stage tensors
// travel over real net.Conn links (framed binary messages) instead of
// in-process channels — the shape of an actual multi-host deployment. A
// demultiplexer per link decodes incoming frames and feeds the runner's
// existing per-edge channels, so the execution logic is identical and the
// gradient-equivalence guarantees carry over unchanged.

// wire is one stage's outgoing half-links, keyed by peer stage.
type wire struct {
	out map[int]*bufio.Writer
}

// writeFrame encodes (iteration, consumer edge, tensor) onto w. The caller
// owns w exclusively (one writer goroutine per link end), so no locking is
// needed. The iteration tag lets multi-step training share one connection:
// a frame is routed to the runner executing that step.
func writeFrame(w *bufio.Writer, iter int, e edgeKey, m *tensor.Matrix) error {
	hdr := []int32{
		int32(iter),
		int32(e.stage), int32(e.op.Kind), int32(e.op.Micro), int32(e.op.Slice),
		int32(e.op.Chunk), int32(e.op.Piece), int32(m.Rows), int32(m.Cols),
	}
	for _, v := range hdr {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := binary.Write(w, binary.LittleEndian, m.Data); err != nil {
		return err
	}
	return w.Flush()
}

// readFrame decodes one message.
func readFrame(r *bufio.Reader) (int, edgeKey, *tensor.Matrix, error) {
	var hdr [9]int32
	for i := range hdr {
		if err := binary.Read(r, binary.LittleEndian, &hdr[i]); err != nil {
			return 0, edgeKey{}, nil, err
		}
	}
	e := edgeKey{
		stage: int(hdr[1]),
		op: sched.Op{
			Kind: sched.Kind(hdr[2]), Micro: int(hdr[3]), Slice: int(hdr[4]),
			Chunk: int(hdr[5]), Piece: int(hdr[6]),
		},
	}
	m := tensor.New(int(hdr[7]), int(hdr[8]))
	if err := binary.Read(r, binary.LittleEndian, m.Data); err != nil {
		return 0, edgeKey{}, nil, err
	}
	return int(hdr[0]), e, m, nil
}

// demux decodes frames from c until the link closes, handing each payload
// to the channel route picks for its iteration tag and consumer edge (nil
// drops the frame: it is not addressed to this end). Every link end the
// runtime reads — RunOverLinks, StageWorker.Run, StageLoop.RunSteps — is
// drained by one of these.
func demux(wg *sync.WaitGroup, c net.Conn, route func(iter int, e edgeKey) chan *tensor.Matrix) {
	spawn(wg, func() {
		br := bufio.NewReader(c)
		for {
			iter, e, m, err := readFrame(br)
			if err != nil {
				return // link closed after the run
			}
			if ch := route(iter, e); ch != nil {
				ch <- m
			}
		}
	})
}

// stagePairs returns the unordered stage pairs that exchange tensors.
func (r *Runner) stagePairs() map[[2]int]bool {
	pairs := map[[2]int]bool{}
	var deps []sched.Dep
	for k, ops := range r.s.Stages {
		for _, op := range ops {
			deps = r.s.Deps(deps[:0], k, op)
			for _, d := range deps {
				if d.Stage == k {
					continue
				}
				a, b := d.Stage, k
				if a > b {
					a, b = b, a
				}
				pairs[[2]int{a, b}] = true
			}
		}
	}
	return pairs
}

// RunOverLinks executes the schedule with cross-stage traffic flowing over
// the provided duplex links: dial(a, b) must return the two ends of a
// connection between stages a < b (net.Pipe for in-memory, a TCP loopback
// pair for sockets). Returns the mean loss, exactly like Runner.Run.
func (r *Runner) RunOverLinks(dial func(a, b int) (net.Conn, net.Conn, error)) (float64, error) {
	wires := make([]wire, r.s.P)
	for k := range wires {
		wires[k].out = map[int]*bufio.Writer{}
	}
	var conns []net.Conn
	var demuxes sync.WaitGroup
	for pair := range r.stagePairs() {
		a, b := pair[0], pair[1]
		ca, cb, err := dial(a, b)
		if err != nil {
			return 0, fmt.Errorf("pipeline: linking stages %d-%d: %w", a, b, err)
		}
		conns = append(conns, ca, cb)
		wires[a].out[b] = bufio.NewWriter(ca)
		wires[b].out[a] = bufio.NewWriter(cb)
		for _, end := range []net.Conn{ca, cb} {
			demux(&demuxes, end, func(_ int, e edgeKey) chan *tensor.Matrix { return r.recv[e] })
		}
	}
	r.wires = wires
	defer func() {
		r.wires = nil
		for _, c := range conns {
			c.Close()
		}
		demuxes.Wait()
	}()
	return r.Run()
}

// RunOverPipes is RunOverLinks with in-memory net.Pipe links.
func (r *Runner) RunOverPipes() (float64, error) {
	return r.RunOverLinks(func(a, b int) (net.Conn, net.Conn, error) {
		ca, cb := net.Pipe()
		return ca, cb, nil
	})
}

// RunOverTCP is RunOverLinks with loopback TCP sockets.
func (r *Runner) RunOverTCP() (float64, error) {
	return r.RunOverLinks(func(a, b int) (net.Conn, net.Conn, error) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		defer l.Close()
		type accepted struct {
			c   net.Conn
			err error
		}
		ch := make(chan accepted, 1)
		spawn(nil, func() {
			c, err := l.Accept()
			ch <- accepted{c, err}
		})
		out, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			return nil, nil, err
		}
		in := <-ch
		if in.err != nil {
			out.Close()
			return nil, nil, in.err
		}
		return out, in.c, nil
	})
}

// sendWire frames one tensor onto the stage's link; transport failures
// surface through the stage's panic recovery in Run.
func (r *Runner) sendWire(from int, e edgeKey, m *tensor.Matrix) {
	w := r.wires[from].out[e.stage]
	if w == nil {
		panic(fmt.Sprintf("pipeline: no link from stage %d to %d", from, e.stage))
	}
	if err := writeFrame(w, r.iter, e, m); err != nil {
		panic(fmt.Sprintf("pipeline: sending %v to stage %d: %v", e.op, e.stage, err))
	}
}
