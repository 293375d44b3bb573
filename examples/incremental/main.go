// Incremental: a stream of edge batches arrives — mostly insertions, with
// occasional retractions — and component counts are needed after every
// batch.  This is the workload the live-session API serves: Attach binds a
// Solver to the graph, AddEdges folds insert batches into the live
// partition in O(batch) union-find work, RemoveEdges resolves each
// deletion through the session's spanning forest (re-solving a component
// only when a replacement search blows its budget), and Components
// re-queries without solving anything.  The
// example replays the same stream against cold from-scratch solves to
// show what the session saves.
//
//	go run ./examples/incremental
package main

import (
	"fmt"
	"log"
	"time"

	"parcc"
)

// n is the stream's vertex count, batches its number of insert batches.
const n, batches = 20000, 10

// stream is the graph whose edges arrive, in order, across the batches.
func stream() *parcc.Graph { return parcc.GNM(n, 3*n, 7) }

func main() {
	full := stream()
	per := full.M() / batches

	fmt.Printf("stream: n=%d, %d insert batches of %d edges, retraction every 4th\n\n", n, batches, per)

	s, err := parcc.NewSolver(nil)
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	if err := s.Attach(parcc.NewGraph(n)); err != nil {
		log.Fatal(err)
	}

	cold := parcc.NewGraph(n)
	res := &parcc.Result{}
	fmt.Println("batch   op        edges    comps   live µs   cold re-solve µs")
	for b := 0; b < batches; b++ {
		lo, hi := b*per, (b+1)*per
		if b == batches-1 {
			hi = full.M()
		}
		batch := full.Edges[lo:hi]

		op := "add"
		t0 := time.Now()
		if err := s.AddEdges(batch); err != nil {
			log.Fatal(err)
		}
		if b > 0 && b%4 == 0 {
			// Retract a slice of an earlier batch: each deletion resolves
			// through the session's spanning forest (an O(1) drop or a
			// bounded replacement search); only a search that blows its
			// budget relabels its component, in place.
			op = "add+del"
			if err := s.RemoveEdges(full.Edges[:per/8]); err != nil {
				log.Fatal(err)
			}
			if err := s.AddEdges(full.Edges[:per/8]); err != nil { // re-add: keep streams aligned
				log.Fatal(err)
			}
		}
		if err := s.ComponentsInto(res); err != nil {
			log.Fatal(err)
		}
		liveT := time.Since(t0)

		// The cold path pays a full solve of the mutated graph per batch.
		cold.Edges = append(cold.Edges, batch...)
		t0 = time.Now()
		scratch, err := parcc.ConnectedComponents(cold, &parcc.Options{Seed: uint64(b + 1)})
		if err != nil {
			log.Fatal(err)
		}
		coldT := time.Since(t0)

		if scratch.NumComponents != res.NumComponents {
			log.Fatalf("batch %d: live says %d comps, scratch says %d",
				b, res.NumComponents, scratch.NumComponents)
		}
		fmt.Printf("%5d   %-7s   %6d   %6d   %7d   %16d\n",
			b, op, s.Live().M(), res.NumComponents,
			liveT.Microseconds(), coldT.Microseconds())
	}

	fmt.Println("\nthe live session folds each batch into the standing partition and")
	fmt.Println("answers from it; the cold column re-pays O(m+n) per batch.  deletions")
	fmt.Println("resolve through the spanning forest; only a blown search budget")
	fmt.Println("relabels, and then only the dirty components, in one union pass.")
}
