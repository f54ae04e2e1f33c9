package harness

import (
	"sync"
	"testing"

	"vscc/internal/sim"
	"vscc/internal/trace"
	"vscc/internal/vscc"
)

func TestAblateSIFStreamingHelps(t *testing.T) {
	on, off, err := AblateSIFStreaming(32768, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The stream turns latency-bound line reads into a bandwidth-bound
	// flow; disabling it must collapse throughput massively.
	if on < 4*off {
		t.Errorf("streaming %.2f MB/s vs no-streaming %.2f MB/s — expected >=4x", on, off)
	}
}

func TestAblateVDMASlotPipelining(t *testing.T) {
	res, err := AblateVDMASlot(65536, 2, []int{512, 3424})
	if err != nil {
		t.Fatal(err)
	}
	// Tiny slots pay per-chunk flag/MMIO overheads.
	if res[3424] <= res[512] {
		t.Errorf("slot 3424 (%.2f) should beat slot 512 (%.2f)", res[3424], res[512])
	}
}

func TestAblateDMABurstAmortization(t *testing.T) {
	res, err := AblateDMABurst(65536, 2, []int{128, 1024})
	if err != nil {
		t.Fatal(err)
	}
	// Small bursts pay per-burst headers on both PCIe directions.
	if res[1024] <= res[128] {
		t.Errorf("burst 1024 (%.2f) should beat burst 128 (%.2f)", res[1024], res[128])
	}
}

func TestAblateDirectThresholdLatency(t *testing.T) {
	direct, engaged, err := AblateDirectThreshold(vscc.SchemeVDMA, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The paper sets the threshold precisely because programming the
	// vDMA controller costs more than a direct 64 B transfer.
	if direct >= engaged {
		t.Errorf("direct 64B latency %d should beat vDMA-engaged %d", direct, engaged)
	}
}

func TestAblateWCBFlushGranularity(t *testing.T) {
	// The flush threshold trades per-descriptor overhead against earlier
	// overlap; since sender-side posting, not the flush path, bounds the
	// remote-put scheme, the impact must stay mild — the scheme must not
	// collapse at either extreme.
	res, err := AblateWCBFlush(65536, 2, []int{64, 1024, 4096})
	if err != nil {
		t.Fatal(err)
	}
	min, max := res[64], res[64]
	for _, v := range res {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if min <= 0 || max/min > 1.5 {
		t.Errorf("flush granularity impact out of band: %v", res)
	}
}

// The BT scheme ablation runs untraced — a 100-rank class C point fills
// gigabytes of trace events — while the ping-pong ablations around it
// keep the installed observer.
func TestAblateBTSchemeIsUntraced(t *testing.T) {
	var mu sync.Mutex
	var labels []string
	prev := SetObserver(func(label string, k *sim.Kernel) *trace.Sink {
		mu.Lock()
		defer mu.Unlock()
		labels = append(labels, label)
		return nil
	})
	defer SetObserver(prev)
	if _, err := AblateBTScheme(4, 1, []vscc.Scheme{vscc.SchemeVDMA}); err != nil {
		t.Fatal(err)
	}
	if len(labels) != 0 {
		t.Fatalf("BT ablation traced %v, want no point", labels)
	}
	if _, _, err := AblateDirectThreshold(vscc.SchemeVDMA, 64, 1); err != nil {
		t.Fatal(err)
	}
	if len(labels) == 0 {
		t.Fatal("observer not restored: the ping-pong ablation after the BT ablation was not traced")
	}
}
