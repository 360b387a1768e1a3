// Quickstart: host an object, invoke it remotely, migrate it, and use a
// move-block — the five-minute tour of the objmig public API.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"objmig"
)

// GreeterState is the object's state: a struct of plain data. The
// exported fields are what travels when the object migrates.
type GreeterState struct {
	Greetings int
}

// newGreeterType declares the object type and its methods. Arguments
// and results are ordinary Go values, linearised by a typed binary
// codec that NewType and HandleFunc compile once per Go type.
func newGreeterType() *objmig.Type[GreeterState] {
	t := objmig.NewType[GreeterState]("greeter")
	objmig.HandleFunc(t, "Greet", func(c *objmig.Ctx, s *GreeterState, name string) (string, error) {
		s.Greetings++
		return fmt.Sprintf("hello %s from %s (greeting #%d)", name, c.Node().ID(), s.Greetings), nil
	})
	return t
}

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// A local cluster is an in-process fabric: perfect for tests and
	// examples. Swap in NewTCPCluster for real deployments.
	cluster := objmig.NewLocalCluster()

	mkNode := func(id objmig.NodeID) *objmig.Node {
		n, err := objmig.NewNode(objmig.Config{
			ID:      id,
			Cluster: cluster,
			// Transient placement is the paper's recommended policy
			// for systems whose components don't coordinate.
			Policy: objmig.PolicyPlacement,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := n.RegisterType(newGreeterType()); err != nil {
			log.Fatal(err)
		}
		return n
	}
	alpha, beta := mkNode("alpha"), mkNode("beta")
	defer func() { _ = alpha.Close(); _ = beta.Close() }()

	// Create an object on alpha. The Ref works from any node.
	greeter, err := alpha.Create("greeter")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("created", greeter)

	// Invoke it locally and remotely: same call, the runtime traps
	// and forwards as needed.
	msg, err := objmig.Call[string, string](ctx, alpha, greeter, "Greet", "local caller")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(msg)
	msg, err = objmig.Call[string, string](ctx, beta, greeter, "Greet", "remote caller")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(msg)

	// Migrate the object to beta; state and identity are preserved.
	if err := alpha.Migrate(ctx, greeter, "beta"); err != nil {
		log.Fatal(err)
	}
	msg, err = objmig.Call[string, string](ctx, alpha, greeter, "Greet", "after migration")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(msg)

	// A move-block: "bring the object to me for this stretch of
	// work". Under placement the first block wins and locks the
	// object; a conflicting block simply runs with remote calls.
	err = alpha.Move(ctx, greeter, func(ctx context.Context, b *objmig.Block) error {
		fmt.Printf("move-block granted=%v, object now at %s\n", b.Granted, b.At)
		for i := 0; i < 3; i++ {
			msg, err := objmig.Call[string, string](ctx, alpha, greeter, "Greet", "block caller")
			if err != nil {
				return err
			}
			fmt.Println(" ", msg)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("done; alpha served", alpha.Stats().InvocationsServed, "invocations,",
		"beta served", beta.Stats().InvocationsServed)
}
