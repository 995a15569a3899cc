"""Regenerate the paper's Figure 1 message charts from a real run.

Traces the same three-call program first over RMI (three
request/response pairs) and then as one explicit batch (a single pair),
and renders both as sequence diagrams from the client's ``client.send``
spans.  The tracer samples nothing, so no trace context rides on the
requests and the byte counts are those of an untraced run; its flight
recorder sees every span regardless.  Also shows §4.4's loopback calls appearing on the server's own
lifeline when a round-tripped reference is used under RMI — and, since
every transport's round trips pass the same span, the same chart drawn
from a live threaded-TCP run over real sockets.

Run:  python examples/message_flow.py
"""

from repro import LAN, RMIClient, RMIServer, SimNetwork, create_batch
from repro.apps.fileserver import make_directory
from repro.apps.simulation import SimulationImpl
from repro.net.tcp import TcpNetwork
from repro.obs import (
    Tracer,
    install_tracer,
    render_message_chart,
    uninstall_tracer,
)


def chart(tracer) -> str:
    return render_message_chart(tracer.flight.completed())


def traced_network():
    network = SimNetwork(conditions=LAN)
    # Spans stamped with the simulator's virtual seconds.
    tracer = install_tracer(
        Tracer(sample_rate=0.0, clock=network.clock.now)
    )
    server = RMIServer(network, "sim://server:1099").start()
    server.bind("root", make_directory(4, 4000))
    server.bind("sim", SimulationImpl())
    client = RMIClient(network, "sim://server:1099")
    return network, client, tracer


def main():
    # -- RMI: one message pair per call ------------------------------------
    network, client, tracer = traced_network()
    root = client.lookup("root")
    tracer.flight.clear()
    f = root.get_file("file01.dat")
    f.get_name()
    f.length()
    print("RMI: three calls, three round trips")
    print(chart(tracer))
    network.close()

    # -- BRMI: one message pair for the whole program -----------------------
    network, client, tracer = traced_network()
    batch = create_batch(client.lookup("root"))
    tracer.flight.clear()
    f = batch.get_file("file01.dat")
    name = f.get_name()
    size = f.length()
    batch.flush()
    print(f"\nBRMI: the same program, one round trip "
          f"({name.get()}, {size.get()} bytes)")
    print(chart(tracer))
    network.close()

    # -- §4.4: loopback calls on the server's own lifeline -------------------
    network, client, tracer = traced_network()
    sim = client.lookup("sim")
    balancer = sim.create_balancer()  # comes back as a stub
    tracer.flight.clear()
    sim.perform_simulation_step(3, balancer)  # server calls its own stub
    print("\nRMI identity quirk: balance() re-enters the server 3 times")
    print(chart(tracer))
    network.close()

    # -- the same contrast over real sockets --------------------------------
    tracer = install_tracer(Tracer(sample_rate=0.0))
    network = TcpNetwork()
    server = RMIServer(network, "tcp://127.0.0.1:0").start()
    server.bind("root", make_directory(4, 4000))
    client = RMIClient(network, server.address)
    batch = create_batch(client.lookup("root"))
    tracer.flight.clear()
    f = batch.get_file("file01.dat")
    f.get_name()
    f.length()
    batch.flush()
    print("\nLive TCP: the batched program, wall-clock timestamps")
    print(chart(tracer))
    client.close()
    server.stop()
    network.close()
    uninstall_tracer()


if __name__ == "__main__":
    main()
