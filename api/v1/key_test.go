package v1_test

import (
	"strings"
	"testing"

	v1 "mepipe/api/v1"
)

// The explicit spellings of the presets the key golden uses.
const (
	llama7B  = `{"name":"llama-7b","hidden_size":4096,"num_layers":30,"num_heads":32,"num_kv_heads":32,"ffn_hidden":11008,"vocab_size":32000,"seq_len":4096}`
	llama13B = `{"name":"llama-13b","hidden_size":5120,"num_layers":38,"num_heads":40,"ffn_hidden":13824,"vocab_size":32000,"seq_len":4096}`
)

// keyGolden pins the cache key of every cached operation's documents. Each
// row lists spellings of one job (preset and explicit, shuffled and
// duplicated lists, defaults omitted and spelled out) and the one hex key
// they share. A changed key is a cache-format change: every deployed cache
// entry and every recorded key would silently stop matching.
var keyGolden = []struct {
	name, op string
	docs     []string
	key      string
}{
	{
		name: "search", op: "search",
		docs: []string{
			`{"system":"MEPipe","model":{"preset":"13b"},"cluster":{"preset":"rtx4090"},"training":{"global_batch":64},"space":{"pp":[16,8,8],"spp":[4,2]},"top":3}`,
			`{"api":"v1","system":"mepipe","model":` + llama13B + `,"cluster":{"gpu":"rtx4090","gpus_per_server":8,"servers":8},"training":{"global_batch":64,"micro_batch":1},"space":{"pp":[8,16],"cp":[8,4,2,1],"spp":[2,4,4],"vp":[4,2],"min_dp":2},"top":3}`,
		},
		key: "9a06990bfb5b0b13dd7b345a49031a15af7221036ef89b5162765229c1de92b7",
	},
	{
		name: "search-default-space", op: "search",
		docs: []string{
			`{"system":"dapple","model":{"preset":"7b"},"cluster":{"preset":"a100","servers":2},"training":{"global_batch":32}}`,
			`{"top":0,"training":{"micro_batch":1,"global_batch":32},"cluster":{"servers":2,"gpu":"a100"},"model":` + llama7B + `,"system":"DAPPLE","space":{"pp":[32,16,8,4,2],"spp":[32,16,8,4,2,1],"min_dp":2}}`,
		},
		key: "842ad736df50b216a54ad9325bdf0f5687c6cfd114610f53f7b34af64729ed9c",
	},
	{
		name: "simulate", op: "simulate",
		docs: []string{
			`{"system":"mepipe","model":{"preset":"7b"},"cluster":{"preset":"rtx4090","servers":1},"training":{"global_batch":8},"parallel":{"pp":8}}`,
			`{"api":"v1","system":"MEPIPE","model":` + llama7B + `,"cluster":{"gpu":"rtx4090","gpus_per_server":8,"servers":1},"training":{"global_batch":8,"micro_batch":1},"parallel":{"pp":8,"dp":1,"cp":1,"spp":4,"vp":1,"recompute":"none"}}`,
		},
		key: "9c7b62dee05af9cf0dd64ffd20089a97210b9ba0c3d13c1f087b32db9b688dcf",
	},
	{
		name: "simulate-vpp-space", op: "simulate",
		docs: []string{
			`{"system":"vpp","model":{"preset":"llama-13b"},"cluster":{"preset":"4090","servers":4},"training":{"global_batch":64,"micro_batch":2},"parallel":{"pp":4,"recompute":"Selective"},"space":{"pp":[4,4]}}`,
			`{"system":"vpp","model":` + llama13B + `,"cluster":{"gpu":"rtx4090","servers":4},"training":{"global_batch":64,"micro_batch":2},"parallel":{"pp":4,"dp":8,"cp":1,"spp":1,"vp":2,"recompute":"selective"},"space":{"pp":[4],"cp":[1,2,4,8],"spp":[1,2,4,8,16,32],"vp":[2,4],"min_dp":2}}`,
		},
		key: "baa0f786dd3b222cafebfa7b22dfb5178fd41d677d34592eed3518ea3af6dbb2",
	},
	{
		name: "sweep", op: "sweep",
		docs: []string{
			`{"systems":["MEPipe","dapple"],"model":{"preset":"13b"},"cluster":{"preset":"rtx4090"},"training":{"global_batch":64},"space":{"pp":[16,8,8],"spp":[4,2]}}`,
			`{"api":"v1","systems":["mepipe","DAPPLE"],"model":` + llama13B + `,"cluster":{"gpu":"rtx4090","gpus_per_server":8,"servers":8},"training":{"global_batch":64,"micro_batch":1},"space":{"pp":[8,16],"spp":[2,4,4]}}`,
		},
		key: "929fb59851055c2a6e3f6c83978449d5b18aeff85ca81fcaab587ce0c917cc0d",
	},
	{
		name: "sweep-all-systems", op: "sweep",
		docs: []string{
			`{"model":{"preset":"7b"},"cluster":{"preset":"rtx4090","servers":1},"training":{"global_batch":8},"top":2}`,
			`{"systems":["dapple","vpp","zb","zbv","mepipe"],"model":` + llama7B + `,"cluster":{"gpu":"rtx4090","servers":1},"training":{"global_batch":8},"top":2}`,
		},
		key: "f74b5c891c3b5c4d4f6b3a4d5275ed4a86794491d0c555b6d73a943c420c3cd2",
	},
	{
		name: "optimize-defaults", op: "optimize",
		docs: []string{
			`{"system":"mepipe","model":{"preset":"7b"},"cluster":{"preset":"rtx4090","servers":1},"training":{"global_batch":8},"parallel":{"pp":8}}`,
			`{"system":"mepipe","model":` + llama7B + `,"cluster":{"gpu":"rtx4090","gpus_per_server":8,"servers":1},"training":{"global_batch":8},"parallel":{"pp":8,"spp":4},"opt":{"seed":1,"iters":1500,"proposals":4}}`,
			`{"opt":{},"parallel":{"dp":1,"pp":8},"training":{"global_batch":8},"cluster":{"servers":1,"preset":"rtx4090"},"model":{"preset":"7b"},"system":"mepipe"}`,
		},
		key: "a7db94ccd127dc129da9da37140ceeea36dfad0a6165a4c333696dd9514b7a9d",
	},
	{
		name: "optimize-spec", op: "optimize",
		docs: []string{
			`{"system":"zbv","model":{"preset":"7b"},"cluster":{"preset":"a100","servers":1},"training":{"global_batch":16},"parallel":{"pp":4},"opt":{"seed":7,"iters":10}}`,
			`{"system":"ZBV","model":` + llama7B + `,"cluster":{"gpu":"a100","gpus_per_server":8,"servers":1},"training":{"global_batch":16,"micro_batch":1},"parallel":{"pp":4,"dp":2,"vp":2},"opt":{"seed":7,"iters":10,"proposals":4}}`,
		},
		key: "ff50d12128cb5357bb77125cfff3b1eb4d15ba34de1ad881d10e7a07c1fa95fd",
	},
}

// docKey decodes doc with op's decoder and returns its cache key.
func docKey(op, doc string) (string, error) {
	switch op {
	case "sweep":
		req, err := v1.DecodeSweepRequest(strings.NewReader(doc))
		if err != nil {
			return "", err
		}
		return req.Key()
	case "optimize":
		req, err := v1.DecodeOptimizeRequest(strings.NewReader(doc))
		if err != nil {
			return "", err
		}
		return req.Key()
	}
	req, err := v1.DecodePlanRequest(strings.NewReader(doc))
	if err != nil {
		return "", err
	}
	return req.Key(op)
}

// TestKeyGolden pins the hex cache keys of search, simulate, sweep and
// optimize documents in every spelling the normalizer folds together.
func TestKeyGolden(t *testing.T) {
	for _, tc := range keyGolden {
		for i, doc := range tc.docs {
			key, err := docKey(tc.op, doc)
			if err != nil {
				t.Errorf("%s doc %d: %v", tc.name, i, err)
				continue
			}
			if key != tc.key {
				t.Errorf("%s doc %d: key %s, want %s", tc.name, i, key, tc.key)
			}
		}
	}
}
