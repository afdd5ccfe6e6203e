package core

import (
	"fmt"
	"math"
	"testing"

	"chaos/internal/geocol"
	"chaos/internal/iterpart"
	"chaos/internal/machine"
	"chaos/internal/partition"
	"chaos/internal/xrand"
)

// methodScatter names the hostile partition of this package's tests:
// every vertex goes to a pseudo-random part, the worst case for
// communication volume. Its partitioner is registered from this test
// file only.
const methodScatter partition.Method = "SCATTER-TEST"

func init() { partition.Register(scatter{}) }

// scatter is the partitioner behind methodScatter.
type scatter struct{}

func (scatter) Name() string { return string(methodScatter) }

func (scatter) Capabilities() partition.Capabilities { return partition.Capabilities{} }

func (scatter) Partition(c *machine.Ctx, g *geocol.Graph, nparts int) []int {
	lo := g.Home.Lo(c.Rank())
	part := make([]int, g.LocalN(c.Rank()))
	for l := range part {
		part[l] = int(xrand.Hash64(uint64(lo+l)^12345) % uint64(nparts))
	}
	c.Words(len(part))
	return part
}

// TestRandomizedLoopsMatchSerial drives the whole runtime (construct,
// partition, redistribute, iteration partitioning, inspector/executor
// with reuse) on randomly generated irregular loops and checks every
// result against a serial evaluation. Each seed draws the problem
// shape, the reduction operators, the partitioner and the iteration
// policy.
func TestRandomizedLoopsMatchSerial(t *testing.T) {
	partitioners := []partition.Method{partition.MethodBlock, methodScatter, partition.MethodRCB, partition.MethodRSB}
	policies := []iterpart.Policy{
		iterpart.AlmostOwnerComputes, iterpart.OwnerComputes, iterpart.BlockIterations,
	}
	ops := []Reduce{Add, Max, Min}

	for seed := uint64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := xrand.New(seed)
			n := 20 + rng.Intn(60)     // data array extent
			nIter := 10 + rng.Intn(80) // iterations
			procs := 2 + rng.Intn(5)   // 2..6 ranks
			nReads := 1 + rng.Intn(3)  // 1..3 gathered reads
			nWrites := 1 + rng.Intn(2) // 1..2 reductions
			part := partitioners[rng.Intn(len(partitioners))]
			pol := policies[rng.Intn(len(policies))]
			repeats := 1 + rng.Intn(3)

			// Random indirection contents.
			readInd := make([][]int, nReads)
			for j := range readInd {
				readInd[j] = make([]int, nIter)
				for i := range readInd[j] {
					readInd[j][i] = rng.Intn(n)
				}
			}
			writeInd := make([][]int, nWrites)
			writeOps := make([]Reduce, nWrites)
			for k := range writeInd {
				writeInd[k] = make([]int, nIter)
				for i := range writeInd[k] {
					writeInd[k][i] = rng.Intn(n)
				}
				writeOps[k] = ops[rng.Intn(len(ops))]
			}
			xInit := func(g int) float64 { return math.Sin(float64(g)*1.3) * 10 }
			yInit := func(k int) float64 {
				switch writeOps[k] {
				case Max:
					return math.Inf(-1)
				case Min:
					return math.Inf(1)
				default:
					return 0
				}
			}
			kernel := func(iter int, in, out []float64) {
				acc := float64(iter%7) * 0.5
				for _, v := range in {
					acc += v
				}
				for k := range out {
					out[k] = acc + float64(k)
				}
			}

			// Serial reference (repeated, since reductions accumulate).
			want := make([][]float64, nWrites)
			for k := range want {
				want[k] = make([]float64, n)
				for g := range want[k] {
					want[k][g] = yInit(k)
				}
			}
			in := make([]float64, nReads)
			out := make([]float64, nWrites)
			for rep := 0; rep < repeats; rep++ {
				for i := 0; i < nIter; i++ {
					for j := range in {
						in[j] = xInit(readInd[j][i])
					}
					kernel(i, in, out)
					for k := range out {
						tgt := writeInd[k][i]
						switch writeOps[k] {
						case Max:
							want[k][tgt] = math.Max(want[k][tgt], out[k])
						case Min:
							want[k][tgt] = math.Min(want[k][tgt], out[k])
						default:
							want[k][tgt] += out[k]
						}
					}
				}
			}

			err := machine.Run(machine.Zero(procs), func(c *machine.Ctx) {
				s := NewSession(c)
				x := s.NewArray("x", n)
				x.FillByGlobal(xInit)
				xc := s.NewArray("xc", n)
				yc := s.NewArray("yc", n)
				xc.FillByGlobal(func(g int) float64 {
					return float64(int(xrand.Hash64(uint64(g)) % 1000))
				})
				yc.FillByGlobal(func(g int) float64 {
					return float64(int(xrand.Hash64(uint64(g)+7) % 1000))
				})

				var reads []Read
				var inds []*IntArray
				for j := 0; j < nReads; j++ {
					ia := s.NewIntArray(fmt.Sprintf("r%d", j), nIter)
					vals := readInd[j]
					ia.FillByGlobal(func(g int) int { return vals[g] })
					reads = append(reads, Read{Arr: x, Ind: ia})
					inds = append(inds, ia)
				}
				var writes []Write
				var ys []*Array
				for k := 0; k < nWrites; k++ {
					y := s.NewArray(fmt.Sprintf("y%d", k), n)
					kk := k
					y.FillByGlobal(func(int) float64 { return yInit(kk) })
					ia := s.NewIntArray(fmt.Sprintf("w%d", k), nIter)
					vals := writeInd[k]
					ia.FillByGlobal(func(g int) int { return vals[g] })
					writes = append(writes, Write{Arr: y, Ind: ia, Op: writeOps[k]})
					ys = append(ys, y)
				}

				// Partition + redistribute data arrays.
				var gin GeoColInput
				switch part {
				case partition.MethodRCB:
					gin = GeoColInput{Geometry: []*Array{xc, yc}}
				case partition.MethodRSB:
					// Connectivity from the first read/write pair.
					gin = GeoColInput{Link1: inds[0], Link2: writes[0].Ind}
				}
				// RSB needs LINK arrays aligned to the vertex space;
				// our indirection arrays live on the iteration space,
				// which geocol accepts (edges may name any vertices).
				g := s.Construct(n, gin)
				m, err := s.SetPartitioning(g, partition.Spec{Method: part}, procs)
				if err != nil {
					panic(err)
				}
				arrays := append([]*Array{x}, ys...)
				s.Redistribute(m, arrays, nil)

				loop := s.NewLoop("rand", nIter, reads, writes, 3, perIter(kernel))
				loop.PartitionIterations(pol)
				for rep := 0; rep < repeats; rep++ {
					loop.Execute()
				}

				for k, y := range ys {
					for i, g := range y.MyGlobals() {
						w := want[k][g]
						if math.IsInf(w, 0) && math.IsInf(y.Data[i], 0) {
							continue
						}
						if math.Abs(y.Data[i]-w) > 1e-9*(1+math.Abs(w)) {
							t.Errorf("seed %d (%s/%v): y%d(%d) = %v, want %v",
								seed, part, pol, k, g, y.Data[i], w)
						}
					}
				}
			})
			if err != nil {
				t.Fatalf("seed %d (%s/%v): %v", seed, part, pol, err)
			}
		})
	}
}
