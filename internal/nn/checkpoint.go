package nn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"mepipe/internal/tensor"
)

// Checkpointing: §9 leans on fast (in-memory) checkpointing to make
// thousand-GPU consumer clusters viable; this is the serialisation those
// checkpoints need. The format is a simple framed binary: a magic header,
// the config, then every parameter tensor in the parameter table's order.
// Loading validates shapes, so a truncated or mismatched checkpoint fails
// loudly instead of corrupting training.

const checkpointMagic = uint32(0x4d455050) // "MEPP"

// Save writes the model's parameters (not optimizer state or gradients).
func (m *Model) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	hdr := []uint32{
		checkpointMagic,
		uint32(m.Cfg.Hidden), uint32(m.Cfg.Heads), uint32(m.Cfg.FFN),
		uint32(m.Cfg.Vocab), uint32(m.Cfg.Layers), uint32(m.Cfg.SeqLen),
	}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, p := range m.params {
		if err := binary.Write(bw, binary.LittleEndian, p.W.Data); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load reads a checkpoint written by Save into an existing model whose
// configuration must match.
func (m *Model) Load(r io.Reader) error {
	br := bufio.NewReader(r)
	var hdr [7]uint32
	for i := range hdr {
		if err := binary.Read(br, binary.LittleEndian, &hdr[i]); err != nil {
			return fmt.Errorf("nn: reading checkpoint header: %w", err)
		}
	}
	if hdr[0] != checkpointMagic {
		return fmt.Errorf("nn: not a checkpoint (magic %#x)", hdr[0])
	}
	got := Config{
		Hidden: int(hdr[1]), Heads: int(hdr[2]), FFN: int(hdr[3]),
		Vocab: int(hdr[4]), Layers: int(hdr[5]), SeqLen: int(hdr[6]),
	}
	if got != m.Cfg {
		return fmt.Errorf("nn: checkpoint config %+v does not match model %+v", got, m.Cfg)
	}
	for _, p := range m.params {
		if err := binary.Read(br, binary.LittleEndian, p.W.Data); err != nil {
			return fmt.Errorf("nn: reading checkpoint tensors: %w", err)
		}
	}
	// Reject trailing garbage (corrupt concatenations).
	if _, err := br.ReadByte(); err != io.EOF {
		return fmt.Errorf("nn: trailing bytes after checkpoint")
	}
	return nil
}

// MaxParamDiff returns the largest absolute parameter difference between
// two models of the same configuration (diagnostics for resume tests).
func MaxParamDiff(a, b *Model) float64 {
	if a.Cfg != b.Cfg {
		return -1
	}
	max := 0.0
	for i, p := range a.params {
		max = math.Max(max, tensor.MaxAbsDiff(p.W, b.params[i].W))
	}
	return max
}
