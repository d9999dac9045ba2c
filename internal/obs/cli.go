package obs

import (
	"bufio"
	"fmt"
	"net/http"
	"os"

	_ "net/http/pprof" // -pprof: registers /debug/pprof on the default mux
)

// SetupCLI builds the observability sink shared by the CLIs' flags: a JSONL
// trace writer when tracePath is set, a metrics registry when withMetrics is
// set, and a net/http/pprof listener when pprofAddr is set. The returned sink
// is nil (disabled) when neither a trace nor metrics were asked for.
//
// flush is idempotent and safe to call both deferred and on the interrupt
// path: it flushes the buffered trace tail to disk and prints the metrics
// summary to stderr. prog prefixes the diagnostics ("mqobench", "mqosolve").
func SetupCLI(prog, tracePath string, withMetrics bool, pprofAddr string) (*Sink, func(), error) {
	var reg *Registry
	if withMetrics {
		reg = NewRegistry()
	}
	var sink *Sink
	var traceFile *os.File
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return nil, nil, err
		}
		traceFile = f
		sink = NewSink(bufio.NewWriter(f), reg)
	} else if reg != nil {
		sink = NewSink(nil, reg)
	}
	if pprofAddr != "" {
		go func() {
			// The default mux carries the net/http/pprof handlers.
			if err := http.ListenAndServe(pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "%s: pprof listener: %v\n", prog, err)
			}
		}()
	}
	done := false
	flush := func() {
		if done {
			return
		}
		done = true
		if traceFile != nil {
			if err := sink.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: trace flush: %v\n", prog, err)
			}
			traceFile.Close()
			fmt.Fprintf(os.Stderr, "%s: trace written to %s\n", prog, tracePath)
		}
		if reg != nil {
			fmt.Fprint(os.Stderr, reg.Summary())
		}
	}
	return sink, flush, nil
}
