package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"sync"
	"time"
)

// The host's speed drifts by up to ±30% over minutes, on every workload at
// once (README.md, "Host drift"), which is more than the bounds must
// resolve. So a round interleaves its timed ops with calibration units:
// fixed reference work written in this package. A unit does one of each
// kind of work the workloads spend their time on: allocation and
// collection on every CPU (planning), float32 multiply-add loops (the GEMM
// kernels), and goroutine hand-offs over unbuffered channels (the
// pipeline's stages and the worker pools). A round's times are reported at
// the reference speed, the speed at which one unit takes calRef: each is
// divided by the round's slowdown, its median unit time over calRef.
//
// The units run in the parent process while the child round waits for
// them. The parent holds no mepipe state, so no change to mepipe, such as
// a smaller heap that makes the collector run more often, can move them.

// calRef is the unit's time at the reference speed. It is a fixed scale,
// in the range the unit takes on the 2-vCPU VM that README.md describes;
// only ratios between runs matter.
const calRef = 8 * time.Millisecond

// calPeriod is the op time, at the workload's reference op cost, between
// two calibration units: the units add under a tenth to a round.
const calPeriod = 100 * time.Millisecond

// calibrate runs one calibration unit and returns its duration.
func calibrate() time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			calAlloc()
		}()
	}
	wg.Wait()
	calGEMM()
	calHandoff()
	return time.Since(start)
}

// calSink keeps the kernels' results live, so the compiler cannot drop
// their work.
var calSink struct {
	sync.Mutex
	n int
	f float32
}

// calAlloc allocates 8000 small byte slices of varying size, keeping up to
// a thousand live, so the collector runs alongside.
func calAlloc() {
	var keep [][]byte
	for i := 0; i < 8000; i++ {
		b := make([]byte, 64+i%512)
		b[0] = byte(i)
		keep = append(keep, b)
		if len(keep) > 1000 {
			keep = keep[:0]
		}
	}
	calSink.Lock()
	calSink.n += len(keep)
	calSink.Unlock()
}

// calA and calB are the operands of calGEMM: a 32×64 by 64×256 product,
// the shape of a slice of tokens through a feed-forward weight.
var calA, calB = calOperand(32*64, 7), calOperand(64*256, 5)

func calOperand(n, period int) []float32 {
	x := make([]float32, n)
	for i := range x {
		x[i] = float32(i%period) * 0.1
	}
	return x
}

// calGEMM multiplies calA by calB four times with a plain triple loop.
func calGEMM() {
	const m, k, n = 32, 64, 256
	c := make([]float32, m*n)
	for r := 0; r < 4; r++ {
		for i := 0; i < m; i++ {
			ci := c[i*n : (i+1)*n]
			for p := 0; p < k; p++ {
				a, bp := calA[i*k+p], calB[p*n:(p+1)*n]
				for j := range ci {
					ci[j] += a * bp[j]
				}
			}
		}
	}
	calSink.Lock()
	calSink.f += slices.Max(c)
	calSink.Unlock()
}

// calHandoff passes a value back and forth between two goroutines over
// unbuffered channels 200 times.
func calHandoff() {
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	s := 0
	for i := 0; i < 200; i++ {
		ping <- i
		s += <-pong
	}
	close(ping)
	for range pong {
	}
	calSink.Lock()
	calSink.n += s
	calSink.Unlock()
}

// runCalibrated runs a child round and serves its calibration requests
// until it exits. The child writes a byte on its fd 3 to ask for a unit
// and reads the unit's duration, eight bytes little-endian, on its fd 4.
func runCalibrated(cmd *exec.Cmd) error {
	reqR, reqW, err := os.Pipe()
	if err != nil {
		return fmt.Errorf("calibration pipe: %w", err)
	}
	defer reqR.Close()
	respR, respW, err := os.Pipe()
	if err != nil {
		reqW.Close()
		return fmt.Errorf("calibration pipe: %w", err)
	}
	defer respW.Close()
	cmd.ExtraFiles = []*os.File{reqW, respR}
	err = cmd.Start()
	// The child holds its own copies; closing the parent's lets a read of
	// reqR end when the child exits.
	reqW.Close()
	respR.Close()
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- serveCalibration(reqR, respW) }()
	err = cmd.Wait()
	if serr := <-served; err == nil {
		err = serr
	}
	return err
}

// serveCalibration runs a unit for every request byte until the requests
// end.
func serveCalibration(req io.Reader, resp io.Writer) error {
	var b [1]byte
	var d [8]byte
	for {
		if _, err := req.Read(b[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("reading calibration request: %w", err)
		}
		binary.LittleEndian.PutUint64(d[:], uint64(calibrate()))
		if _, err := resp.Write(d[:]); err != nil {
			return fmt.Errorf("answering calibration request: %w", err)
		}
	}
}

// parentUnits returns a function, for a child round, that asks the parent
// process for a calibration unit over the pipes runCalibrated passed it,
// and waits for the unit's duration.
func parentUnits() func() (time.Duration, error) {
	req, resp := os.NewFile(3, "calibration requests"), os.NewFile(4, "calibration replies")
	return func() (time.Duration, error) {
		if _, err := req.Write([]byte{1}); err != nil {
			return 0, fmt.Errorf("requesting a calibration unit: %w", err)
		}
		var d [8]byte
		if _, err := io.ReadFull(resp, d[:]); err != nil {
			return 0, fmt.Errorf("reading a calibration unit: %w", err)
		}
		return time.Duration(binary.LittleEndian.Uint64(d[:])), nil
	}
}
