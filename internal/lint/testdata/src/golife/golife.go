// Package golife is a ringlint test fixture: positive and negative
// cases for the goroutine-lifecycle analyzer.
package golife

import "sync"

func work() {}

func fireAndForget() {
	go work() // want "no tracked termination path"
}

func fireAndForgetLit() {
	go func() { // want "no tracked termination path"
		work()
	}()
}

func waitGroupTracked() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // negative: joined via wg.Wait
		defer wg.Done()
		work()
	}()
	wg.Wait()
}

func completionSend() error {
	errs := make(chan error, 1)
	go func() { // negative: last statement signals completion
		work()
		errs <- nil
	}()
	return <-errs
}

func completionClose() {
	done := make(chan struct{})
	go func() { // negative: close(done) is the join point
		work()
		close(done)
	}()
	<-done
}

type looper struct{ wg sync.WaitGroup }

func (l *looper) loop() {
	defer l.wg.Done()
	work()
}

func (l *looper) start() {
	l.wg.Add(1)
	go l.loop() // negative: named callee defers wg.Done
}

func untrackedNamed() {
	go work() // want "no tracked termination path"
}

func reviewedException() {
	//ringlint:goroutine-exception -- fixture: reviewed fire-and-forget
	go work() // negative: annotated exception
}
