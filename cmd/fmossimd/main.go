// Entry point; the command is documented in doc.go.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fmossim/internal/server"
)

func main() {
	var cfg server.Config
	addr := flag.String("addr", ":8458", "listen address")
	flag.IntVar(&cfg.MaxJobs, "max-jobs", 2, "campaigns running concurrently")
	flag.IntVar(&cfg.QueueDepth, "queue", 16, "queued (accepted, not started) jobs before shedding with 429")
	flag.DurationVar(&cfg.RetryAfter, "retry-after", time.Second, "Retry-After hint on 429 responses")
	flag.DurationVar(&cfg.StreamInterval, "stream-interval", 100*time.Millisecond, "minimum spacing between streamed snapshots")
	flag.IntVar(&cfg.KeepTerminal, "keep-terminal", 64, "finished jobs retained for status queries before eviction")
	flag.Parse()

	mgr := server.NewManager(cfg)
	srv := &http.Server{Addr: *addr, Handler: mgr.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		fmt.Fprintln(os.Stderr, "fmossimd: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
	}()

	fmt.Fprintf(os.Stderr, "fmossimd: listening on %s (max %d concurrent jobs, queue %d)\n",
		*addr, cfg.MaxJobs, cfg.QueueDepth)
	err := srv.ListenAndServe()
	// ListenAndServe returns as soon as Shutdown is called; cancel and
	// drain every job (which lets in-flight stream handlers write their
	// terminal lines), then wait for Shutdown to finish those handlers
	// off before exiting.
	mgr.Close()
	if !errors.Is(err, http.ErrServerClosed) && err != nil {
		fmt.Fprintln(os.Stderr, "fmossimd:", err)
		os.Exit(1)
	}
	stop()
	<-shutdownDone
}
