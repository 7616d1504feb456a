// Command ringbuild builds a serialized ring index from a whitespace-
// separated triple file (one "subject predicate object" per line, '#'
// comments allowed) and reports the build statistics the paper quotes in
// Section 5.2.1: build time, triples per minute, and bytes per triple.
//
// Usage:
//
//	ringbuild -in graph.tsv -out graph.ring [-compress] [-b 16]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	wcoring "repro"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ringbuild: ")

	in := flag.String("in", "", "input triple file (s p o per line)")
	out := flag.String("out", "", "output index file")
	compress := flag.Bool("compress", false, "build the compressed C-Ring")
	rrrBlock := flag.Int("b", 16, "RRR block size for -compress (paper's parameter b)")
	flag.Parse()
	if *in == "" || *out == "" {
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*in)
	if err != nil {
		log.Fatal(err)
	}
	triples, err := wcoring.ParseTSV(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parsed %d triples\n", len(triples))

	start := time.Now()
	store, err := wcoring.NewStore(triples, wcoring.Options{Compress: *compress, RRRBlock: *rrrBlock})
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	n, err := writeIndex(*out, store)
	if err != nil {
		log.Fatal(err)
	}

	rate := float64(store.Len()) / elapsed.Minutes()
	fmt.Printf("indexed %d distinct triples in %v (%.1fM triples/minute)\n",
		store.Len(), elapsed.Round(time.Millisecond), rate/1e6)
	fmt.Printf("index: %.2f bytes/triple in memory, %d bytes on disk (incl. dictionary)\n",
		float64(store.SizeBytes())/float64(store.Len()), n)
}

// writeIndex writes the index to path+".tmp", fsyncs it and renames it
// over path. A server mapping the previous file keeps its inode, so
// rebuilding an index in place never truncates pages under a live
// mapping.
func writeIndex(path string, store *wcoring.Store) (int64, error) {
	tmp, err := os.OpenFile(path+".tmp", os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o666)
	if err != nil {
		return 0, err
	}
	n, err := store.WriteTo(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return 0, err
	}
	return n, nil
}
