package fabricsim

import (
	"sort"
	"testing"

	"basrpt/internal/eventq"
	"basrpt/internal/flow"
)

// oracleCell is one cell of the reference router: the outbox is an
// eventq calendar, and routing pops every message below the horizon from
// every outbox, stable-sorts the lot by (delivery time, source cell), and
// appends it to the destination inboxes. routeOutboxes must reproduce
// its inboxes exactly.
type oracleCell struct {
	outbox   eventq.Queue[shardMsg]
	inbox    []routedMsg
	inboxPos int
}

func oracleRoute(cells []*oracleCell, horizon float64, hpr int) {
	for _, c := range cells {
		c.inbox = append(c.inbox[:0], c.inbox[c.inboxPos:]...)
		c.inboxPos = 0
	}
	var routed []routedMsg
	for ci, c := range cells {
		for {
			dt, ok := c.outbox.PeekTime()
			if !ok || dt >= horizon {
				break
			}
			m, t, _ := c.outbox.Pop()
			routed = append(routed, routedMsg{deliver: t, srcCell: ci, msg: m})
		}
	}
	sort.SliceStable(routed, func(i, j int) bool {
		if routed[i].deliver != routed[j].deliver {
			return routed[i].deliver < routed[j].deliver
		}
		return routed[i].srcCell < routed[j].srcCell
	})
	for _, rm := range routed {
		dst := cells[rm.msg.dst/hpr]
		dst.inbox = append(dst.inbox, rm)
	}
}

// routeInput hands out the fuzz input one byte at a time, then zeros.
type routeInput []byte

func (in *routeInput) next() int {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return int(b)
}

// FuzzShardRouting drives routeOutboxes and the reference router with the
// same message streams and checks, after every route, that the inboxes
// agree element for element, that every inbox is delivery-sorted, that
// the horizon split is exact, and that no message is lost or duplicated.
//
// Delivery times sit on a lattice of lookahead quarters plus small
// multiples of timeEps, and every horizon is a lattice point plus the
// engine's 2·timeEps slack, so the inputs hit exact cross-cell ties and
// messages a timeEps either side of the horizon. Each source's stream is
// non-decreasing, and a message appended after a route delivers no
// earlier than that route's horizon: the engine's prefetch contract.
func FuzzShardRouting(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{})
	f.Add(uint8(1), uint8(2), []byte{3, 5, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 200, 100, 7, 7, 7, 7, 1, 1})
	// Long pseudo-random inputs, so the seed corpus alone (what go test
	// runs) fills several inboxes from several sources per route.
	x := uint32(1)
	for i := 0; i < 8; i++ {
		data := make([]byte, 600)
		for j := range data {
			x = x*1664525 + 1013904223
			data[j] = byte(x >> 24)
		}
		f.Add(uint8(i), uint8(i/2), data)
	}
	f.Fuzz(func(t *testing.T, cellsIn, hprIn uint8, data []byte) {
		numCells := 2 + int(cellsIn)%7
		hpr := 1 + int(hprIn)%4
		const step = 25e-6 / 4
		in := routeInput(data)

		sut := make([]*shardCell, numCells)
		ref := make([]*oracleCell, numCells)
		for i := range sut {
			sut[i] = &shardCell{rack: i}
			ref[i] = &oracleCell{}
		}
		last := make([]float64, numCells) // each source's last delivery
		var sent, consumed int
		var ids flow.ID
		endTick, prevHorizon := 0, 0.0

		rounds := 1 + in.next()%8
		for r := 0; r < rounds; r++ {
			endTick += 1 + in.next()%4
			horizon := float64(endTick)*step + 2*timeEps
			for src := 0; src < numCells; src++ {
				for k := in.next() % 6; k > 0; k-- {
					// A tick around the new horizon and an offset of -1..+3
					// timeEps, clamped to keep the stream non-decreasing and
					// at or past the previous horizon.
					tick := endTick - 2 + in.next()%5
					d := float64(tick)*step + float64(in.next()%5-1)*timeEps
					d = max(d, last[src], prevHorizon)
					last[src] = d
					dstCell := (src + 1 + in.next()%(numCells-1)) % numCells
					ids++
					m := shardMsg{src: src*hpr + in.next()%hpr, dst: dstCell*hpr + in.next()%hpr, id: ids}
					sut[src].outbox = append(sut[src].outbox, routedMsg{deliver: d, srcCell: src, msg: m})
					ref[src].outbox.Schedule(d, m)
					sent++
				}
			}

			routeOutboxes(sut, horizon, hpr)
			oracleRoute(ref, horizon, hpr)

			held := 0
			for i, c := range sut {
				got, want := c.inbox[c.inboxPos:], ref[i].inbox[ref[i].inboxPos:]
				if len(got) != len(want) {
					t.Fatalf("round %d: cell %d inbox has %d messages, reference %d", r, i, len(got), len(want))
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("round %d: cell %d inbox[%d] = %+v, reference %+v", r, i, j, got[j], want[j])
					}
					if got[j].deliver >= horizon {
						t.Fatalf("round %d: cell %d holds a message delivering at %g >= horizon %g", r, i, got[j].deliver, horizon)
					}
					if j > 0 && got[j].deliver < got[j-1].deliver {
						t.Fatalf("round %d: cell %d inbox out of delivery order at %d", r, i, j)
					}
				}
				for _, m := range c.outbox {
					if m.deliver < horizon {
						t.Fatalf("round %d: cell %d kept a message delivering at %g < horizon %g", r, i, m.deliver, horizon)
					}
				}
				held += len(c.outbox) + len(got)
			}
			if held+consumed != sent {
				t.Fatalf("round %d: %d sent, %d held + %d consumed", r, sent, held, consumed)
			}

			// Consume a prefix of each inbox, as the cells' windows would.
			for i, c := range sut {
				n := in.next() % (len(c.inbox) - c.inboxPos + 1)
				c.inboxPos += n
				ref[i].inboxPos += n
				consumed += n
			}
			prevHorizon = horizon
		}
	})
}
