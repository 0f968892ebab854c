package workload

import (
	"encoding/binary"
	"testing"
)

// TestQuantaExactlySized: Result.Quanta is built once at the end of a run,
// exactly sized, holding each device's scheduling intervals in turn. The
// hash (fnv-64a over every field of every record, in order) of the 2-GPU
// run was taken while the per-device records were appended slices
// concatenated device by device.
func TestQuantaExactlySized(t *testing.T) {
	const pinned2GPU = 0x7a9dea5b376c7415
	for _, gpus := range []int{1, 2} {
		res, err := Run(Config{Seed: 1, Kind: Olympian, GPUs: gpus}, smallClients(4, 2))
		if err != nil {
			t.Fatal(err)
		}
		q := res.Quanta
		if len(q) == 0 || len(q) != cap(q) {
			t.Fatalf("%d GPUs: len(Quanta) %d, cap %d; want equal and non-zero", gpus, len(q), cap(q))
		}
		t.Logf("%d GPUs: %d quanta", gpus, len(q))
		if gpus == 1 {
			continue
		}
		// Clients alternate between the two devices (0 and 2 on device 0),
		// so device-major order is every even client's record, then every
		// odd one's.
		split := 0
		for split < len(q) && q[split].Client%2 == 0 {
			split++
		}
		if split == 0 || split == len(q) {
			t.Fatalf("2 GPUs: device 0 recorded %d of %d quanta; want both devices represented", split, len(q))
		}
		for i, r := range q[split:] {
			if r.Client%2 == 0 {
				t.Fatalf("2 GPUs: record %d (client %d) of device 0 follows device 1's records", split+i, r.Client)
			}
		}
		var buf []byte
		for _, r := range q {
			for _, v := range []int64{int64(r.Client), int64(r.JobID), int64(r.Start), int64(r.End),
				int64(r.GPUDuration), int64(r.ActiveJobs), int64(r.OverflowKernels)} {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
			}
		}
		if got := fnv64(buf); got != pinned2GPU {
			t.Errorf("2 GPUs: Quanta hash %#x, want %#x", got, uint64(pinned2GPU))
		}
	}
}
